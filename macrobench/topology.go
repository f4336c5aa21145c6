package main

import (
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"grouptravel/internal/dataset"
	"grouptravel/internal/geo"
	"grouptravel/internal/router"
	"grouptravel/internal/server"
	"grouptravel/internal/store"
)

// routerPoll is the router's health-feed cadence in the benchmark
// topology (the load generator's value since the topology first ran).
const routerPoll = 250 * time.Millisecond

// walSync is the nodes' WAL flush policy: the default, an fsync before
// every acknowledgement.
var walSync = store.WALSyncPolicy{Mode: store.WALSyncAlways}

// genCities generates n paper-scale cities (dataset.DefaultSpec, about a
// thousand POIs each) from the seed.
func genCities(n int, seed int64) ([]*dataset.City, error) {
	cities := make([]*dataset.City, n)
	errs := make(chan error, n)
	for i := range cities {
		go func(i int) {
			center := geo.Point{Lat: 48.8566 + 0.5*float64(i), Lon: 2.3522 + 0.5*float64(i)}
			c, err := dataset.Generate(dataset.DefaultSpec(fmt.Sprintf("Benchcity%02d", i), center, seed*1009+int64(i)))
			cities[i] = c
			errs <- err
		}(i)
	}
	var first error
	for range cities {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return cities, first
}

// topology is the in-process serving stack: a persistent primary, one
// streaming follower, and the edge-cached router in front of both, each
// on its own loopback listener, with state in fresh directories.
type topology struct {
	router, primary, follower string // base URLs
	keys                      []string
	closers                   []func()
}

// boot starts the stack over cities with state under dir. With a tracer
// every node's handler and the router's upstream client record spans.
func boot(cities []*dataset.City, dir string, tr *tracer) (*topology, error) {
	t := &topology{}
	for _, c := range cities {
		t.keys = append(t.keys, strings.ToLower(c.Name))
	}
	listen := func() (net.Listener, string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		return ln, "http://" + ln.Addr().String(), nil
	}
	serve := func(ln net.Listener, h http.Handler) {
		srv := &http.Server{Handler: h}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(ln)
		}()
		t.closers = append(t.closers, func() {
			_ = srv.Close()
			<-done
		})
	}
	node := func(name string, node uint8, opts server.Options) (string, error) {
		ln, base, err := listen()
		if err != nil {
			return "", err
		}
		state := filepath.Join(dir, name)
		if err := os.MkdirAll(state, 0o755); err != nil {
			ln.Close()
			return "", err
		}
		opts.Cities = cities
		opts.SnapshotDir = state
		opts.Advertise = base
		opts.PreloadCities = t.keys
		s, err := server.NewMultiCity(opts)
		if err != nil {
			ln.Close()
			return "", err
		}
		t.closers = append(t.closers, s.Close)
		var h http.Handler = s.Handler()
		if tr != nil {
			h = tr.wrap(kindShard, node, h)
		}
		serve(ln, h)
		return base, nil
	}

	var err error
	if t.primary, err = node("primary", nodePrimary, server.Options{WALSync: walSync}); err != nil {
		t.close()
		return nil, fmt.Errorf("primary: %w", err)
	}
	if t.follower, err = node("follower", nodeFollower, server.Options{Follow: t.primary, WALSync: walSync}); err != nil {
		t.close()
		return nil, fmt.Errorf("follower: %w", err)
	}

	opts := router.Options{
		Topology:     &router.Topology{Shards: []router.Shard{{Name: "s1", Nodes: []string{t.primary, t.follower}}}},
		PollInterval: routerPoll,
		EdgeCache:    true,
	}
	if tr != nil {
		opts.HTTP = &http.Client{Transport: &hopTransport{t: tr, next: proxyTransport(), nodes: map[string]uint8{
			hostOf(t.primary): nodePrimary, hostOf(t.follower): nodeFollower,
		}}}
	}
	rt, err := router.New(opts)
	if err != nil {
		t.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	t.closers = append(t.closers, rt.Close)
	rt.Poll()
	ln, base, err := listen()
	if err != nil {
		t.close()
		return nil, err
	}
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.wrap(kindRouter, nodeRouter, h)
	}
	serve(ln, h)
	t.router = base
	return t, nil
}

// proxyTransport is configured like the router's default upstream
// transport, so a traced run measures the same connection behaviour.
func proxyTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: 30 * time.Second,
	}
}

func hostOf(base string) string {
	u, err := url.Parse(base)
	if err != nil {
		return ""
	}
	return u.Host
}

// close stops the stack in reverse start order and waits for each
// listener's serve loop to return.
func (t *topology) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}
