package router

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// runRouterReadYourWritesUnderLag is the acceptance harness for the
// front tier: a router over one primary and two *artificially lagging*
// followers (their replication syncs run on a slow manual cadence, so at
// the moment a client reads back its write the followers are genuinely
// behind), with concurrent clients mutating and immediately reading
// through the router. The invariant under test: a read-back carrying
// the write's floor NEVER observes pre-write state — not a 404, not a
// stale copy — while token-less readers keep being served by followers.
// Both stateless carriers race each other: even writers replay the
// gt-session cookie, odd writers echo the commit token as X-GT-Min-Seq.
// Runs under -race via `make race`, which is half the point: the whole
// request path — floor parsing, health feed, candidate selection, edge
// cache, counters — is exercised from many goroutines at once. With edge true the
// router's edge cache is on, so every hit, coalesced fill, and
// floor-raise races the same traffic.
func runRouterReadYourWritesUnderLag(t *testing.T, edge bool) {
	_, pts := newPrimary(t)
	f1, f1ts := newFollower(t, pts.URL)
	f2, f2ts := newFollower(t, pts.URL)
	cities := rtTestCities(t)

	// Primary deliberately listed last: discovery, not list order, must
	// find it. ShedLag < 0 keeps even lagging followers in the token-less
	// pool — the adversarial setting for read-your-writes.
	rt, rts := newRouter(t, Options{
		Topology:  singleShard(f1ts.URL, f2ts.URL, pts.URL),
		ShedLag:   -1,
		EdgeCache: edge,
	})
	rt.Poll()

	// Seed one warm group per city and replicate it everywhere, so
	// token-less readers have an entity every follower can serve.
	warm := make(map[string]int, len(cities))
	for _, c := range cities {
		var g createdGroup
		doJSON(t, "POST", rts.URL+"/cities/"+cityKeyOf(c)+"/groups", groupBody(c), nil, http.StatusCreated, &g)
		warm[cityKeyOf(c)] = g.ID
	}
	syncAll(t, f1)
	syncAll(t, f2)
	rt.Poll()

	// The lag engine: followers sync on a slow drip (every ~15ms), the
	// health feed refreshes faster — so followers are consistently a few
	// writes behind while their *reported* positions stay honest.
	done := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(15 * time.Millisecond):
				for _, c := range cities {
					_ = f1.Follower().Sync(cityKeyOf(c))
					_ = f2.Follower().Sync(cityKeyOf(c))
				}
			}
		}
	}()
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(3 * time.Millisecond):
				rt.Poll()
			}
		}
	}()

	// Writer clients: mutate through the router, read back immediately
	// carrying the write's floor. Every read-back must see the write.
	const writers, writesEach = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers*writesEach+64)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			city := cities[wi%len(cities)]
			base := rts.URL + "/cities/" + cityKeyOf(city)
			var cookie string // even writers: the jar, replayed on every request
			for i := 0; i < writesEach; i++ {
				var sent map[string]string
				if cookie != "" {
					sent = cookieCarrier(cookie)
				}
				var g createdGroup
				hdr, err := tryDoJSON("POST", base+"/groups", groupBody(city), sent, http.StatusCreated, &g)
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", wi, err)
					return
				}
				if g.Seq <= 0 {
					errs <- fmt.Errorf("writer %d: mutation carried no commit token: %+v", wi, g)
					return
				}
				floor := minSeqCarrier(g.Seq)
				if wi%2 == 0 {
					if cookie = cookieValue(hdr); cookie == "" {
						errs <- fmt.Errorf("writer %d: mutation ack set no %s cookie", wi, SessionCookie)
						return
					}
					floor = cookieCarrier(cookie)
				}
				// The moment of truth: read back through the router.
				var got createdGroup
				if _, err := tryDoJSON("GET", fmt.Sprintf("%s/groups/%d", base, g.ID), nil, floor, http.StatusOK, &got); err != nil {
					errs <- fmt.Errorf("writer %d observed pre-write state for group %d: %w", wi, g.ID, err)
					return
				}
				if got.Size != 3 {
					errs <- fmt.Errorf("writer %d: stale read-back %+v", wi, got)
					return
				}
			}
		}(wi)
	}

	// Token-less readers hammer the warm entities for the whole run — the
	// edge cache's hottest keys when it is on.
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for ri := 0; ri < 2; ri++ {
		readers.Add(1)
		go func(ri int) {
			defer readers.Done()
			city := cities[ri%len(cities)]
			url := fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, cityKeyOf(city), warm[cityKeyOf(city)])
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				if _, err := tryDoJSON("GET", url, nil, nil, http.StatusOK, nil); err != nil {
					errs <- fmt.Errorf("token-less reader %d: %w", ri, err)
					return
				}
			}
		}(ri)
	}

	wg.Wait()
	close(stopReaders)
	readers.Wait()
	close(done)
	bg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The routing counters prove the topology actually worked as designed:
	// read-backs were pinned, some pinned reads needed the primary (the
	// followers really were lagging), and token-less traffic was served
	// by followers.
	c := rt.ctr
	total, primary, follower := c.readsTotal.Value(), c.readsPrimary.Value(), c.readsFollower.Value()
	ledger := fmt.Sprintf("reads total=%d primary=%d follower=%d edgeHits=%d edgeCoalesced=%d",
		total, primary, follower, c.edgeHits.Value(), c.edgeCoalesced.Value())
	if n := c.mutations.Value(); n != int64(writers*writesEach+len(cities)) {
		t.Fatalf("mutations = %d, want %d", n, writers*writesEach+len(cities))
	}
	if n := c.readsPinned.Value(); n < int64(writers*writesEach) {
		t.Fatalf("readsPinned = %d, want >= %d", n, writers*writesEach)
	}
	if follower == 0 {
		t.Fatalf("no read was served by a follower: %s", ledger)
	}
	if primary == 0 {
		t.Fatalf("no pinned read ever needed the primary — the followers were not lagging: %s", ledger)
	}
	if !edge {
		if total != primary+follower {
			t.Fatalf("reads don't add up: %s", ledger)
		}
		return
	}
	// With the edge cache on the ledger gains two lines: hits served zero
	// backends, and a coalesced rider may have been served from its fill
	// (counted under coalesced alone) or fallen through to its own fetch
	// (counted under coalesced AND a role counter).
	backed := primary + follower + c.edgeHits.Value()
	if total < backed || total > backed+c.edgeCoalesced.Value() {
		t.Fatalf("edge-cache reads don't add up: %s", ledger)
	}
	// Every proxied mutation carries a commit token, so each must have
	// raised (or tied) the city's commit floor — never purged.
	if c.edgeInvalidations.Value() == 0 {
		t.Fatalf("no mutation ever invalidated the edge cache: %s", ledger)
	}
}

// TestRouterReadYourWritesUnderLag is the baseline acceptance test for
// the front tier (edge cache off).
func TestRouterReadYourWritesUnderLag(t *testing.T) {
	runRouterReadYourWritesUnderLag(t, false)
}

// TestRouterReadYourWritesUnderLagEdgeCache re-runs the acceptance
// harness with the edge cache on: hits, coalesced fills, and commit-floor
// invalidations race the same concurrent traffic, and read-your-writes
// must hold bit for bit.
func TestRouterReadYourWritesUnderLagEdgeCache(t *testing.T) {
	runRouterReadYourWritesUnderLag(t, true)
}
