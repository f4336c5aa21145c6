package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"grouptravel/internal/consensus"
	"grouptravel/internal/core"
	"grouptravel/internal/dataset"
	"grouptravel/internal/fuzzy"
	"grouptravel/internal/geo"
	"grouptravel/internal/interact"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
)

// buildInput is what one package build sent: enough to rebuild the same
// package through the engine.
type buildInput struct {
	city      int
	members   []map[string][]float64
	consensus string
	k         int
	query     *queryReq // nil: the default query
}

// opInput is one customization op as sent.
type opInput struct {
	member, ci, poi int
	op              string
}

// sessionInput is one refiner's session: its build, the ops applied to
// the fresh package in order, and the refinement strategy.
type sessionInput struct {
	build buildInput
	ops   []opInput
	batch bool
}

// Replay sample caps: enough for stable medians, few enough that the
// single-threaded replay stays around a second.
const (
	maxReplayBuilds   = 120
	maxReplaySessions = 60
	maxReplayClusters = 24
)

// replayLog records the window's inputs for the traced run's replay. A
// nil log records nothing.
type replayLog struct {
	mu       sync.Mutex
	builds   []buildInput
	sessions []sessionInput
}

func (l *replayLog) addBuild(b buildInput) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.builds) < maxReplayBuilds {
		l.builds = append(l.builds, b)
	}
	l.mu.Unlock()
}

func (l *replayLog) addSession(s sessionInput) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.sessions) < maxReplaySessions {
		l.sessions = append(l.sessions, s)
	}
	l.mu.Unlock()
}

// replayTimes are per-call medians, in microseconds, of the engine and
// interaction functions, measured by replaying recorded inputs one at a
// time through the library with nothing else running.
type replayTimes struct {
	profile, pairwise, cluster, ciBuild, op, refine float64
}

func methodFor(name string) (consensus.Method, error) {
	switch name {
	case "avg":
		return consensus.AveragePref, nil
	case "leastmisery":
		return consensus.LeastMisery, nil
	case "pairwise":
		return consensus.PairwiseDis, nil
	case "variance":
		return consensus.VarianceDis, nil
	}
	return consensus.Method{}, fmt.Errorf("unknown consensus %q", name)
}

func (b buildInput) group(city *dataset.City) (*profile.Group, error) {
	members := make([]*profile.Profile, len(b.members))
	for i, m := range b.members {
		ratings := map[poi.Category][]float64{}
		for name, v := range m {
			c, err := poi.ParseCategory(name)
			if err != nil {
				return nil, err
			}
			ratings[c] = v
		}
		p, err := profile.FromRatings(city.Schema, ratings)
		if err != nil {
			return nil, err
		}
		members[i] = p
	}
	return profile.NewGroup(city.Schema, members)
}

func (b buildInput) queryOf() query.Query {
	if b.query == nil {
		return query.Default()
	}
	q := b.query
	return query.MustNew(q.Acco, q.Trans, q.Rest, q.Attr, math.Inf(1))
}

// replay times the recorded inputs through consensus.GroupProfile,
// fuzzy.Cluster, core.Engine.Build (cluster cache warm) and the
// interact.Session ops and refinement functions.
func replay(cities []*dataset.City, log *replayLog) (replayTimes, error) {
	engines := make([]*core.Engine, len(cities))
	for i, c := range cities {
		e, err := core.NewEngine(c)
		if err != nil {
			return replayTimes{}, err
		}
		engines[i] = e
	}
	var profUS, pairUS, clusterUS, buildUS, opUS, refineUS []float64
	timeit := func(dst *[]float64, f func() error) error {
		start := time.Now()
		err := f()
		*dst = append(*dst, float64(time.Since(start))/1e3)
		return err
	}
	type clusterKey struct {
		city, k int
		q       query.Query
	}
	clustered := map[clusterKey]bool{}

	// buildOne replays one build and returns its package.
	buildOne := func(b buildInput) (*core.TravelPackage, *profile.Group, consensus.Method, error) {
		city := cities[b.city]
		g, err := b.group(city)
		if err != nil {
			return nil, nil, consensus.Method{}, err
		}
		method, err := methodFor(b.consensus)
		if err != nil {
			return nil, nil, method, err
		}
		var gp *profile.Profile
		if err := timeit(&profUS, func() (err error) { gp, err = consensus.GroupProfile(g, method); return }); err != nil {
			return nil, nil, method, err
		}
		if err := timeit(&pairUS, func() error { _, err := consensus.GroupProfile(g, consensus.PairwiseDis); return err }); err != nil {
			return nil, nil, method, err
		}
		q := b.queryOf()
		params := core.DefaultParams(b.k)
		if key := (clusterKey{b.city, b.k, q}); !clustered[key] && len(clustered) < maxReplayClusters {
			clustered[key] = true
			pts := relevantPoints(city, q)
			cfg := fuzzy.Config{K: params.K, M: params.M, MaxIters: params.ClusterIters, Tol: 1e-4, Seed: params.Seed}
			if err := timeit(&clusterUS, func() error { _, err := fuzzy.Cluster(pts, city.POIs.Normalizer(), cfg); return err }); err != nil {
				return nil, nil, method, err
			}
		}
		// Untimed first build warms the engine's cluster cache; the timed
		// one is the warm-cache build a server answers most requests with.
		if _, err := engines[b.city].Build(gp, q, params); err != nil {
			return nil, nil, method, err
		}
		var tp *core.TravelPackage
		err = timeit(&buildUS, func() (err error) { tp, err = engines[b.city].Build(gp, q, params); return })
		return tp, g, method, err
	}

	for _, b := range log.builds {
		if _, _, _, err := buildOne(b); err != nil {
			return replayTimes{}, fmt.Errorf("replay build: %w", err)
		}
	}
	for _, s := range log.sessions {
		tp, g, method, err := buildOne(s.build)
		if err != nil {
			return replayTimes{}, fmt.Errorf("replay session build: %w", err)
		}
		sess, err := interact.NewSession(cities[s.build.city], tp)
		if err != nil {
			return replayTimes{}, err
		}
		for _, op := range s.ops {
			err := timeit(&opUS, func() error {
				switch op.op {
				case "remove":
					return sess.Remove(op.member, op.ci, op.poi)
				case "add":
					return sess.Add(op.member, op.ci, op.poi)
				default:
					_, err := sess.Replace(op.member, op.ci, op.poi)
					return err
				}
			})
			if err != nil {
				return replayTimes{}, fmt.Errorf("replay %s: %w", op.op, err)
			}
		}
		err = timeit(&refineUS, func() error {
			if s.batch {
				_, err := interact.RefineBatch(tp.Group, sess.Log())
				return err
			}
			_, _, err := interact.RefineIndividual(g, method, sess.Log())
			return err
		})
		if err != nil {
			return replayTimes{}, fmt.Errorf("replay refine: %w", err)
		}
	}
	return replayTimes{
		profile: medianOf(profUS), pairwise: medianOf(pairUS), cluster: medianOf(clusterUS),
		ciBuild: medianOf(buildUS), op: medianOf(opUS), refine: medianOf(refineUS),
	}, nil
}

// relevantPoints are the coordinates of the POIs whose category the
// query requests — the points the engine clusters.
func relevantPoints(city *dataset.City, q query.Query) []geo.Point {
	var pts []geo.Point
	for _, p := range city.POIs.All() {
		if q.Counts[p.Cat] > 0 {
			pts = append(pts, p.Coord)
		}
	}
	return pts
}
