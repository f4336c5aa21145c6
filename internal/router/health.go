package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"grouptravel/internal/replicate"
	"grouptravel/internal/telemetry"
)

// healthPollTimeout bounds one node's health poll regardless of the
// transport client's own timeout. The feed's pollAll waits for every
// node, so a black-holed node (accepts, never answers) must not be able
// to hold the whole fleet's views stale — promotion discovery and lag
// shedding run on this data.
const healthPollTimeout = 3 * time.Second

// NodeView is the router's cached picture of one backend node — the
// replica-health feed routing decisions read. It is refreshed by polling
// the node's /healthz (role, advertised URL, upstream) and /cities
// (per-city appliedSeq, one cheap call), never by the request path: a
// routed read must not block on a health round trip.
type NodeView struct {
	URL       string `json:"url"`
	Role      string `json:"role,omitempty"`      // primary | follower | promoted | fenced; "" never polled
	Advertise string `json:"advertise,omitempty"` // the URL the node self-describes as
	Primary   string `json:"primary,omitempty"`   // the upstream the node reports following
	// Epoch/EpochPrimary are the replication term the node last reported
	// (X-GT-Epoch response headers, stamped on every backend response).
	// The router's per-shard maximum is the fencing epoch it relays on
	// every proxied request and health poll — how a deposed primary
	// learns it lost, even if it never hears from the new one directly.
	Epoch        int64  `json:"epoch,omitempty"`
	EpochPrimary string `json:"epochPrimary,omitempty"`
	// AppliedSeq is the node's last committed/applied WAL sequence per
	// city — what session tokens are compared against.
	AppliedSeq map[string]int64 `json:"appliedSeq,omitempty"`
	// Err is the last poll's failure; a node with Err set keeps its last
	// known sequences but is ineligible for routing until a poll succeeds.
	Err      string    `json:"error,omitempty"`
	PolledAt time.Time `json:"polledAt,omitempty"`
}

// nodeHealthz is the slice of a backend's /healthz the router decodes.
type nodeHealthz struct {
	Role      string `json:"role"`
	Advertise string `json:"advertise"`
	Primary   string `json:"primary"`
}

// nodeCityRow is one row of a backend's GET /cities.
type nodeCityRow struct {
	Key        string `json:"key"`
	Loaded     bool   `json:"loaded"`
	WALBytes   int64  `json:"walBytes"`
	AppliedSeq int64  `json:"appliedSeq"`
}

// healthFeed polls every backend node on an interval and serves the
// cached views. Polls for different nodes run concurrently; reads take a
// short RWMutex critical section and copy, so the request path never
// holds the lock across I/O. The node set is mutable (setNodes) so an
// online topology reload swaps backends without restarting the feed.
type healthFeed struct {
	client   *http.Client
	interval time.Duration

	// epochFor resolves the fencing epoch the feed should stamp on a
	// poll of the given node (the router wires it to the node's shard
	// epoch). Called outside the feed's lock. Nil: no stamping.
	epochFor func(url string) (int64, string)
	// afterPoll runs after every completed pollAll pass — the router
	// hangs its failover supervisor here so lease checks see data
	// exactly one poll old, never staler.
	afterPoll func()

	mu    sync.RWMutex
	urls  []string
	views map[string]*NodeView
	// Scrape instruments, attached by instrument (telemetry.go) and
	// extended under mu when setNodes adds backends; nil maps
	// (uninstrumented feeds in tests) index to nil metrics, whose
	// methods are no-ops.
	reg     *telemetry.Registry
	pollLat map[string]*telemetry.Histogram
	nodeUp  map[string]*telemetry.Gauge

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      sync.WaitGroup
}

func newHealthFeed(urls []string, client *http.Client, interval time.Duration) *healthFeed {
	hf := &healthFeed{
		client:   client,
		interval: interval,
		views:    make(map[string]*NodeView, len(urls)),
		stop:     make(chan struct{}),
	}
	hf.setNodes(urls)
	return hf
}

// setNodes replaces the polled node set: views of surviving nodes are
// kept (their sequences stay the router's best lower bound across a
// reload), new nodes start unpolled, and removed nodes drop from the
// feed — their up-gauge zeroed so dashboards don't show a ghost as up.
func (hf *healthFeed) setNodes(urls []string) {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	next := make(map[string]*NodeView, len(urls))
	dedup := make([]string, 0, len(urls))
	for _, u := range urls {
		if _, ok := next[u]; ok {
			continue
		}
		dedup = append(dedup, u)
		if v, ok := hf.views[u]; ok {
			next[u] = v
		} else {
			next[u] = &NodeView{URL: u}
		}
		hf.instrumentLocked(u)
	}
	for u := range hf.views {
		if _, ok := next[u]; !ok && hf.nodeUp[u] != nil {
			hf.nodeUp[u].Set(0)
		}
	}
	hf.urls, hf.views = dedup, next
}

// start launches the background poller (idempotent); no-op when the
// interval is non-positive — the embedder drives pollAll itself (tests).
func (hf *healthFeed) start() {
	if hf.interval <= 0 {
		return
	}
	hf.startOnce.Do(func() {
		hf.done.Add(1)
		go func() {
			defer hf.done.Done()
			for {
				select {
				case <-hf.stop:
					return
				case <-time.After(hf.interval):
					hf.pollAll()
				}
			}
		}()
	})
}

func (hf *healthFeed) stopPolling() {
	hf.stopOnce.Do(func() { close(hf.stop) })
	hf.done.Wait()
}

// pollAll refreshes every node once, concurrently, and returns when all
// polls finished — the synchronous pass tests and boot warm-up use.
// The afterPoll hook (failover supervision) runs once per pass, after
// every view is fresh.
func (hf *healthFeed) pollAll() {
	hf.mu.RLock()
	urls := append([]string(nil), hf.urls...)
	hf.mu.RUnlock()
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			hf.poll(u)
		}(u)
	}
	wg.Wait()
	if hf.afterPoll != nil {
		hf.afterPoll()
	}
}

// poll refreshes one node: /healthz for identity, /cities for per-city
// positions. The poll carries the shard's fencing epoch out (request
// headers) and brings the node's own term back (response headers) — a
// deposed primary is fenced by its very next health poll, even with no
// client traffic relayed at it. A failure marks the view unhealthy but
// keeps the last known sequences — they are still the best lower bound
// the router has.
func (hf *healthFeed) poll(url string) {
	start := time.Now()
	var term int64
	var owner string
	if hf.epochFor != nil {
		term, owner = hf.epochFor(url)
	}
	var h nodeHealthz
	respTerm, respOwner, err := hf.getJSON(url+"/healthz", &h, term, owner)
	var rows []nodeCityRow
	if err == nil {
		_, _, err = hf.getJSON(url+"/cities", &rows, term, owner)
	}
	lat, up := hf.instruments(url)
	lat.ObserveSince(start)
	if err != nil {
		up.Set(0)
	} else {
		up.Set(1)
	}
	hf.mu.Lock()
	defer hf.mu.Unlock()
	v := hf.views[url]
	if v == nil {
		return
	}
	v.PolledAt = time.Now()
	if err != nil {
		v.Err = err.Error()
		return
	}
	v.Err = ""
	v.Role, v.Advertise, v.Primary = h.Role, h.Advertise, h.Primary
	if respTerm > v.Epoch {
		v.Epoch, v.EpochPrimary = respTerm, respOwner
	}
	applied := make(map[string]int64, len(rows))
	for _, row := range rows {
		applied[row.Key] = row.AppliedSeq
	}
	v.AppliedSeq = applied
}

// instruments returns the node's scrape metrics (nil-safe no-ops when
// the feed is uninstrumented or the node was just removed).
func (hf *healthFeed) instruments(url string) (*telemetry.Histogram, *telemetry.Gauge) {
	hf.mu.RLock()
	defer hf.mu.RUnlock()
	return hf.pollLat[url], hf.nodeUp[url]
}

// getJSON fetches one backend endpoint, stamping the known fencing
// epoch on the request and returning the term the response advertised.
func (hf *healthFeed) getJSON(url string, out any, term int64, owner string) (int64, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), healthPollTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", err
	}
	if term > 0 {
		req.Header.Set(replicate.HeaderEpoch, strconv.FormatInt(term, 10))
		if owner != "" {
			req.Header.Set(replicate.HeaderEpochPrimary, owner)
		}
	}
	resp, err := hf.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	respTerm, _ := strconv.ParseInt(resp.Header.Get(replicate.HeaderEpoch), 10, 64)
	respOwner := resp.Header.Get(replicate.HeaderEpochPrimary)
	if resp.StatusCode != http.StatusOK {
		// Error bodies read into a stack scratch array: a down node is
		// polled every interval, and the io.ReadAll garbage per failed
		// poll adds up across a long outage.
		var scratch [256]byte
		n, _ := io.ReadFull(resp.Body, scratch[:])
		return respTerm, respOwner, fmt.Errorf("%s: %s: %s", url, resp.Status, scratch[:n])
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return respTerm, respOwner, err
	}
	return respTerm, respOwner, nil
}

// view returns a copy of one node's cached state (maps shared read-only:
// poll replaces them wholesale, never mutates in place).
func (hf *healthFeed) view(url string) NodeView {
	hf.mu.RLock()
	defer hf.mu.RUnlock()
	if v, ok := hf.views[url]; ok {
		return *v
	}
	return NodeView{URL: url}
}
