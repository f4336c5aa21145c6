// Package daemontest runs a command's main function in a child process of
// the command's own test binary, so the command's tests exercise its real
// flag set, listener and exit codes.
//
// A command's main_test.go hands the process to main when the daemon's
// environment variable is set:
//
//	var daemon = daemontest.Daemon{Env: "GROUPTRAVEL_SERVER_RUN_MAIN"}
//
//	func TestMain(m *testing.M) { daemon.Main(m, main) }
package daemontest

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// Daemon is a command whose test binary doubles as the command.
type Daemon struct {
	// Env is the environment variable that makes the test binary run
	// main instead of the tests.
	Env string
}

// Main runs the tests, or main when d.Env is set. The testing package
// registered its -test.* flags on the default flag set; main gets a fresh
// one, so it parses only its own.
func (d Daemon) Main(m *testing.M, main func()) {
	if os.Getenv(d.Env) != "1" {
		os.Exit(m.Run())
	}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main()
}

func (d Daemon) command(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), d.Env+"=1")
	return cmd
}

// Run runs main with args to completion and returns its combined output
// and exit code.
func (d Daemon) Run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := d.command(ctx, args...).CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// Flags returns the names of the flags main lists under -h, in order.
func (d Daemon) Flags(t *testing.T) []string {
	t.Helper()
	out, code := d.Run(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d:\n%s", code, out)
	}
	var names []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	return names
}

// Undefined fails t unless main stops at flag parsing on arg: exit code 2
// and "flag provided but not defined". rest follows arg on the command
// line; it should make a boot fail fast, so that an arg which parses
// cannot leave a daemon running.
func (d Daemon) Undefined(t *testing.T, arg string, rest ...string) {
	t.Helper()
	out, code := d.Run(t, append([]string{arg}, rest...)...)
	if code != 2 || !strings.Contains(out, "flag provided but not defined") {
		t.Errorf("%s: exit %d, want 2 with \"flag provided but not defined\":\n%s", arg, code, out)
	}
}

// Start starts main with args and -addr 127.0.0.1:0, waits until its
// /healthz answers 200 and returns its base URL. main must print the
// address it bound as the last word of its first line of standard output;
// reading it back, instead of picking a free port beforehand, leaves no
// window in which another process can take the port. Cleanup kills the
// child and waits for it to exit.
func (d Daemon) Start(t *testing.T, args ...string) string {
	t.Helper()
	cmd := d.command(context.Background(), append(args, "-addr", "127.0.0.1:0")...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	first := make(chan string, 1)
	exited := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			first <- sc.Text()
		}
		for sc.Scan() {
		}
		_ = cmd.Wait()
		close(exited)
	}()
	stop := func() {
		_ = cmd.Process.Kill()
		<-exited
	}
	t.Cleanup(stop)

	var line string
	select {
	case line = <-first:
	case <-exited:
		t.Fatalf("daemon exited before listening:\n%s", stderr.String())
	case <-time.After(time.Minute):
		stop()
		t.Fatalf("daemon printed no address:\n%s", stderr.String())
	}
	base := "http://" + line[strings.LastIndexByte(line, ' ')+1:]
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		select {
		case <-exited:
			t.Fatalf("daemon exited before serving:\n%s", stderr.String())
		default:
		}
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base
			}
		}
	}
	stop()
	t.Fatalf("daemon at %s never answered /healthz:\n%s", base, stderr.String())
	return ""
}
