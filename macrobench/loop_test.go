package main

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// stubEnv is an env whose router is a stub answering every request
// after a fixed service time, with one sender.
func stubEnv(t *testing.T, service time.Duration) *env {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("{}"))
	}))
	t.Cleanup(srv.Close)
	city := &benchCity{key: "stub", groups: []int{1, 2}, pkgs: []int{3, 4}}
	return &env{
		w:      workload{name: "stub", mix: [numPersonas]float64{reader: 1}},
		top:    &topology{router: srv.URL},
		cities: []*benchCity{city},
		cfg:    config{senders: 1},
		hc:     srv.Client(),
	}
}

// An open loop must time each request from when it was due: arrivals
// that queue behind a slow sender carry their wait in their latency,
// which a closed loop or a send-time clock would hide.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 10 * time.Millisecond
	e := stubEnv(t, service)
	// 40 arrivals in 100ms, each three 10ms reads on one sender: about
	// 1.2s of work, so the last arrivals wait about a second.
	res := e.openLoop(400, 100*time.Millisecond, 1, false)
	if res.errors+res.violations != 0 {
		t.Fatalf("%d errors, %d violations: %v", res.errors, res.violations, res.msgs)
	}
	reads := append([]float64(nil), res.lat[opRead]...)
	sort.Float64s(reads)
	if len(reads) != 3*len(res.queueUS) || len(reads) == 0 {
		t.Fatalf("%d reads for %d arrivals, want 3 per arrival", len(reads), len(res.queueUS))
	}
	if min := reads[0]; min < float64(service)/1e6 {
		t.Errorf("fastest read %.2fms, below the %v service time", min, service)
	}
	if max := reads[len(reads)-1]; max < 500 {
		t.Errorf("slowest read %.0fms: queueing behind the sender was not counted from the due time", max)
	}
	if q := percentileOr(res.queueUS, 1); q < 500e3 {
		t.Errorf("largest queue wait %.0fus, want the backlog (>500ms) reported", q)
	}
	if late := percentileOr(res.lateMS, 0.5); late > 5 {
		t.Errorf("median dispatcher lateness %.2fms: the schedule must not wait for senders", late)
	}
}

// The closed loop runs exactly the fixed work and never queues.
func TestClosedLoopRunsFixedWork(t *testing.T) {
	e := stubEnv(t, time.Millisecond)
	res := e.closedLoop(10, 1)
	if res.attempted != 30 || len(res.lat[opRead]) != 30 {
		t.Errorf("closed loop made %d requests (%d timed), want 30", res.attempted, len(res.lat[opRead]))
	}
}
