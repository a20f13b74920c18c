package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"time"

	"smartdrill/api"
	"smartdrill/internal/brs"
	"smartdrill/internal/drill"
	"smartdrill/internal/rule"
	"smartdrill/internal/sampling"
	"smartdrill/internal/score"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// replayer re-runs served work in process on the same table and options:
// view resolution (Store.FilterRows), mw estimation
// (drill.EstimateMaxWeight), the search (brs.RunCtx), exact counts
// (Store.CountExact) and samples (sampling.Handler.GetSample). Its answers
// are the reference the served answers are checked against, and its
// timings are the per-layer numbers of the layers below the server, which
// cannot be wrapped from outside. Identical work is replayed once.
type replayer struct {
	tab   *table.Table
	store *storage.Store
	k     int
	w     weight.Weighter

	views  map[string]*table.View
	mws    map[string]float64
	runs   map[string][]brs.Result
	counts map[string]int

	// Per-layer timings in milliseconds, one entry per distinct replay.
	filterMS, mwMS, brsMS, drillMS, countMS, sampleMS []float64
	// mwUsed lists the estimated mw of every replayed expansion.
	mwUsed []float64
}

func newReplayer(tab *table.Table, k int) *replayer {
	return &replayer{
		tab:    tab,
		store:  storage.NewStore(tab),
		k:      k,
		w:      weight.NewSize(tab.NumCols()),
		views:  map[string]*table.View{},
		mws:    map[string]float64{},
		runs:   map[string][]brs.Result{},
		counts: map[string]int{},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// weighter is the session weighter, star-constrained for a star drill.
func (r *replayer) weighter(col int) weight.Weighter {
	if col < 0 {
		return r.w
	}
	return weight.StarConstraint{Inner: r.w, Column: col}
}

// expand replays one exact expansion of rl (a star drill on col when
// col >= 0) by a session with the given seed.
func (r *replayer) expand(ctx context.Context, seed int64, rl rule.Rule, col int) ([]brs.Result, error) {
	if seed == 0 {
		seed = 1 // drill.NewSession's default
	}
	var spent time.Duration
	view, ok := r.views[rl.Key()]
	if !ok {
		start := time.Now()
		if rl.IsTrivial() {
			view = r.tab.All()
		} else {
			view = r.tab.ViewOf(r.store.FilterRows(rl))
		}
		d := time.Since(start)
		spent += d
		r.filterMS = append(r.filterMS, ms(d))
		r.views[rl.Key()] = view
	}
	w := r.weighter(col)
	mwKey := fmt.Sprintf("%s|%d|%d", rl.Key(), col, seed)
	mw, ok := r.mws[mwKey]
	if !ok {
		start := time.Now()
		mw = drill.EstimateMaxWeight(view, w, r.k, seed)
		d := time.Since(start)
		spent += d
		r.mwMS = append(r.mwMS, ms(d))
		r.mws[mwKey] = mw
		r.mwUsed = append(r.mwUsed, mw)
	}
	runKey := fmt.Sprintf("%s|%d|%v", rl.Key(), col, mw)
	res, ok := r.runs[runKey]
	if !ok {
		start := time.Now()
		var err error
		res, _, err = brs.RunCtx(ctx, view, w, brs.Options{
			K:           r.k,
			MaxWeight:   mw,
			Base:        rl,
			BaseCovered: true,
			Agg:         score.CountAgg{},
		})
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		spent += d
		r.brsMS = append(r.brsMS, ms(d))
		r.runs[runKey] = res
	}
	if spent > 0 {
		r.drillMS = append(r.drillMS, ms(spent))
	}
	return res, nil
}

// countExact replays one exact count.
func (r *replayer) countExact(rl rule.Rule) int {
	if n, ok := r.counts[rl.Key()]; ok {
		return n
	}
	start := time.Now()
	n := r.store.CountExact(rl)
	r.countMS = append(r.countMS, ms(time.Since(start)))
	r.counts[rl.Key()] = n
	return n
}

// replaySamples replays each session's sequence of sampled expansions on
// a fresh sample handler seeded like the session's, timing GetSample and
// estimating mw on the sample the search ran on.
func (r *replayer) replaySamples(req api.CreateSessionRequest, exps []sampledExpansion) error {
	handlers := map[string]*sampling.Handler{}
	for _, e := range exps {
		seed := e.seed
		if seed == 0 {
			seed = 1
		}
		h, ok := handlers[e.session]
		if !ok {
			var err error
			h, err = sampling.NewHandler(r.store, req.SampleMemory, req.MinSampleSize, sampling.NewTestRNG(seed))
			if err != nil {
				return err
			}
			handlers[e.session] = h
		}
		rl, err := r.tab.EncodeRule(e.rule)
		if err != nil {
			return err
		}
		start := time.Now()
		v, err := h.GetSample(rl)
		if err != nil {
			return err
		}
		r.sampleMS = append(r.sampleMS, ms(time.Since(start)))
		r.mwUsed = append(r.mwUsed, drill.EstimateMaxWeight(v.Tab, r.w, r.k, seed))
	}
	return nil
}

// answerKey identifies one expansion's answer: the session seed (part of
// the answer-cache key), the expanded rule and the star column.
func answerKey(seed int64, rl map[string]string, column string) string {
	keys := make([]string, 0, len(rl))
	for c, v := range rl {
		keys = append(keys, c+"="+v)
	}
	sort.Strings(keys)
	return fmt.Sprintf("%d|%s|%s", seed, strings.Join(keys, ","), column)
}

// checker collects correctness failures.
type checker struct {
	failures []string
	checked  map[string]int
}

func newChecker() *checker { return &checker{checked: map[string]int{}} }

func (c *checker) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool { return len(c.failures) == 0 }

// sameChildren compares served children with reference results.
func sameChildren(tab *table.Table, served []*api.Node, want []brs.Result) error {
	if len(served) != len(want) {
		return fmt.Errorf("%d children served, %d expected", len(served), len(want))
	}
	for i, n := range served {
		w := want[i]
		display := tab.DecodeRule(w.Rule)
		switch {
		case !reflect.DeepEqual(n.Display, display):
			return fmt.Errorf("child %d is %v, expected %v", i, n.Display, display)
		case n.Count != w.Count:
			return fmt.Errorf("child %d %v counts %v, expected %v", i, n.Display, n.Count, w.Count)
		case n.Weight != w.Weight:
			return fmt.Errorf("child %d %v weighs %v, expected %v", i, n.Display, n.Weight, w.Weight)
		case !n.Exact:
			return fmt.Errorf("child %d %v is not exact", i, n.Display)
		}
	}
	return nil
}

// sameServed compares two served child lists (a hit against the miss that
// filled the cache).
func sameServed(a, b []*api.Node) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d children, %d in the miss answer", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Display, b[i].Display) || a[i].Count != b[i].Count ||
			a[i].Weight != b[i].Weight || a[i].Exact != b[i].Exact {
			return fmt.Errorf("child %d is %v count %v, the miss answer has %v count %v",
				i, a[i].Display, a[i].Count, b[i].Display, b[i].Count)
		}
	}
	return nil
}

// checkDrills checks the exact drill answers of a run. Each key's first
// answer — a miss, or a hit on a node the warmers computed — must equal
// the in-process replay (FilterRows → EstimateMaxWeight → brs.RunCtx on
// the same view), and every later answer for the key, cache hits
// included, must have equalled the first (compared as it arrived).
func (c *checker) checkDrills(ctx context.Context, rp *replayer, rec *recording) {
	c.checked["hit_vs_miss"] += rec.hitChecks
	c.failures = append(c.failures, rec.mismatches...)
	keys := make([]string, 0, len(rec.answers))
	for k := range rec.answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		d := rec.answers[key]
		rl, err := rp.tab.EncodeRule(d.rule)
		if err != nil {
			c.fail("served rule %v does not encode: %v", d.rule, err)
			continue
		}
		col := -1
		if d.column != "" {
			if col, err = rp.tab.ColumnIndex(d.column); err != nil {
				c.fail("star column %q: %v", d.column, err)
				continue
			}
		}
		want, err := rp.expand(ctx, d.seed, rl, col)
		if err != nil {
			c.fail("replaying %s: %v", key, err)
			continue
		}
		c.checked["drill_vs_replay"]++
		if err := sameChildren(rp.tab, d.children, want); err != nil {
			c.fail("served drill of %s differs from the replay: %v", key, err)
		}
	}
}

// checkRefines checks that every SSE refine count equals Store.CountExact
// for that rule, and returns the share of provisional intervals that
// bracket the exact count (NaN when there were none).
func (c *checker) checkRefines(rp *replayer, refines []refineEvent) float64 {
	covered, withCI := 0, 0
	for _, e := range refines {
		rl, err := rp.tab.EncodeRule(e.rule)
		if err != nil {
			c.fail("refined rule %v does not encode: %v", e.rule, err)
			continue
		}
		c.checked["refine_vs_count_exact"]++
		if want := float64(rp.countExact(rl)); e.exact != want {
			c.fail("refine of %v counts %v, Store.CountExact gives %v", e.rule, e.exact, want)
		}
		if ci := e.provisional.CI; ci != nil {
			withCI++
			if ci[0] <= e.exact && e.exact <= ci[1] {
				covered++
			}
		}
	}
	if withCI == 0 {
		return math.NaN()
	}
	return float64(covered) / float64(withCI)
}

// checkTrees compares session trees before and after a restart.
func (c *checker) checkTrees(before, after map[string]*api.Tree) {
	for id, b := range before {
		c.checked["restart_tree"]++
		a, ok := after[id]
		if !ok {
			c.fail("session %s did not survive the restart", id)
			continue
		}
		if !reflect.DeepEqual(a, b) {
			c.fail("session %s tree after the restart differs from the tree before it", id)
		}
	}
}
