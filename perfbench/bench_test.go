package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"smartdrill/api"
	"smartdrill/internal/datagen"
	"smartdrill/internal/table"
)

// smallWorkload is w on a small Census table, so a run takes about a
// second.
func smallWorkload(w *workload, rows int) *workload {
	cp := *w
	cp.table = func() *table.Table { return datagen.CensusProjected(rows, 7, 7) }
	return &cp
}

// served is one short run of a workload against a real server.
type served struct {
	w    *workload
	tab  *table.Table
	live *serving
	dir  string
	rec  *recording
}

func serve(t *testing.T, w *workload, seed int64, dur time.Duration) *served {
	t.Helper()
	tab := w.table()
	dir := t.TempDir()
	live, _, err := startServer(w, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, _ := runClients(w, tab, live.base, seed, dur, nil)
	if len(rec.errs) > 0 {
		t.Fatalf("run errors: %v", rec.errs)
	}
	return &served{w: w, tab: tab, live: live, dir: dir, rec: rec}
}

// checkDrills runs the drill checks on rec with a fresh replayer.
func (s *served) checkDrills(rec *recording) *checker {
	ck := newChecker()
	ck.checkDrills(context.Background(), newReplayer(s.tab, 3), rec)
	return ck
}

// cloneChildren deep-copies served children so a test can corrupt its
// copy.
func cloneChildren(t *testing.T, children []*api.Node) []*api.Node {
	t.Helper()
	raw, err := json.Marshal(children)
	if err != nil {
		t.Fatal(err)
	}
	var out []*api.Node
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// corruptFirst returns a copy of rec whose first answer for one key
// passing pick is replaced by a corrupted copy.
func corruptFirst(t *testing.T, rec *recording, pick func(*drillAnswer) bool, corrupt func([]*api.Node)) *recording {
	t.Helper()
	out := &recording{answers: map[string]*drillAnswer{}, hitChecks: rec.hitChecks}
	done := false
	for k, d := range rec.answers {
		cp := *d
		if !done && pick(d) {
			cp.children = cloneChildren(t, d.children)
			corrupt(cp.children)
			done = true
		}
		out.answers[k] = &cp
	}
	if !done {
		t.Fatal("no recorded answer to corrupt")
	}
	return out
}

func TestExploreChecksRejectCorruptedAnswers(t *testing.T) {
	s := serve(t, smallWorkload(workloadByName("census-explore"), 3000), 1, 4*time.Second)
	defer s.live.stop()
	if ck := s.checkDrills(s.rec); !ck.ok() || ck.checked["drill_vs_replay"] == 0 || ck.checked["hit_vs_miss"] == 0 {
		t.Fatalf("untouched answers: failures %v, checked %v", ck.failures, ck.checked)
	}

	// A miss answer off by one tuple must disagree with the replay.
	bad := corruptFirst(t, s.rec, func(d *drillAnswer) bool { return !d.hit && len(d.children) > 0 },
		func(c []*api.Node) { c[0].Count++ })
	if ck := s.checkDrills(bad); ck.ok() {
		t.Error("a corrupted miss count passed the replay check")
	}

	// A cache hit with its children reordered must disagree with the miss
	// answer it replays.
	for _, d := range s.rec.answers {
		if !d.hit && len(d.children) > 1 {
			hit := *d
			hit.hit = true
			hit.children = cloneChildren(t, d.children)
			hit.children[0], hit.children[1] = hit.children[1], hit.children[0]
			s.rec.observe(hit)
			break
		}
	}
	if ck := s.checkDrills(s.rec); ck.ok() {
		t.Error("a corrupted cache hit passed the hit-vs-miss check")
	}
}

func TestSharedDurableChecksRejectCorruptedAnswers(t *testing.T) {
	w := smallWorkload(workloadByName("census-shared-durable"), 5000)
	s := serve(t, w, 2, time.Second)
	if len(s.rec.kept) != w.clients {
		t.Fatalf("kept %d sessions, want one per client (%d)", len(s.rec.kept), w.clients)
	}

	// Hits on warmed nodes have no served miss: the first of them is
	// checked against the replay, and a corrupted one must fail.
	bad := corruptFirst(t, s.rec, func(d *drillAnswer) bool { return d.hit && len(d.rule) == 0 && len(d.children) > 0 },
		func(c []*api.Node) { c[len(c)-1].Weight++ })
	if ck := s.checkDrills(bad); ck.ok() {
		t.Error("a corrupted hit on a warmed node passed")
	}
	if ck := s.checkDrills(s.rec); !ck.ok() {
		t.Fatalf("untouched answers: %v", ck.failures)
	}

	before, after, recovered, err := restartTrees(context.Background(), w, s.live, s.tab, s.dir, s.rec.kept, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recovered < len(s.rec.kept) {
		t.Fatalf("recovered %d sessions, kept %d", recovered, len(s.rec.kept))
	}
	ck := newChecker()
	ck.checkTrees(before, after)
	if !ck.ok() || ck.checked["restart_tree"] != len(s.rec.kept) {
		t.Fatalf("untouched trees: failures %v, checked %v", ck.failures, ck.checked)
	}

	// A tree that loses a node across the restart must be caught.
	for id, tr := range after {
		raw, _ := json.Marshal(tr)
		var bad api.Tree
		if err := json.Unmarshal(raw, &bad); err != nil {
			t.Fatal(err)
		}
		if len(bad.Root.Children) == 0 {
			bad.Root.Count--
		} else {
			bad.Root.Children = bad.Root.Children[1:]
		}
		after[id] = &bad
		break
	}
	ck = newChecker()
	ck.checkTrees(before, after)
	if ck.ok() {
		t.Error("a corrupted tree after the restart passed")
	}
}

func TestSampledStreamChecksRejectCorruptedRefines(t *testing.T) {
	w := smallWorkload(workloadByName("census-sampled-stream"), 60000)
	w.session.SampleMemory, w.session.MinSampleSize, w.session.SampleThreshold = 6000, 1000, 20000
	s := serve(t, w, 3, 2*time.Second)
	defer s.live.stop()
	if len(s.rec.refines) == 0 {
		t.Fatal("no refine events were recorded")
	}
	ck := newChecker()
	cover := ck.checkRefines(newReplayer(s.tab, 3), s.rec.refines)
	if !ck.ok() || cover < 0 || cover > 1 {
		t.Fatalf("untouched refines: failures %v, coverage %v", ck.failures, cover)
	}
	bad := append([]refineEvent(nil), s.rec.refines...)
	bad[len(bad)-1].exact++
	ck = newChecker()
	ck.checkRefines(newReplayer(s.tab, 3), bad)
	if ck.ok() {
		t.Error("a corrupted refine count passed the CountExact check")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, the workload list
// and the metric lists in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []metricDef, names, units []string) {
		if len(got) != len(names) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(names), len(got))
		}
		seen := map[string]bool{}
		for i, d := range got {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s here", kind, i, names[i], units[i], d.name, d.unit)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s: bad or repeated metric %q unit %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	var n, u []string
	for _, m := range b.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range b.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer(), n, u)
}

// TestUntracedRunLoadsNoWrappers: with tracing off the server handler and
// the client transports are the program's own, with only the failure
// counter under the SDK.
func TestUntracedRunLoadsNoWrappers(t *testing.T) {
	w := smallWorkload(workloadByName("census-shared-durable"), 2000)
	live, _, err := startServer(w, w.table(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.stop()
	if reflect.ValueOf(live.hs.Handler).Pointer() != reflect.ValueOf(live.srv.Handler()).Pointer() {
		t.Error("untraced server handler is wrapped")
	}
	if _, ok := live.backend.(*tracedBackend); ok {
		t.Error("untraced session backend is wrapped")
	}
	rt, ct, _ := newTransport(nil)
	if rt != http.RoundTripper(ct) {
		t.Error("untraced client transport is wrapped")
	}
}

// TestHostScaleAppliesToTimesAndRates: end-to-end times are scaled by
// refKernelMS over the run's median kernel time and the rate the other
// way round; set-up time and memory are reported as measured.
func TestHostScaleAppliesToTimesAndRates(t *testing.T) {
	start := time.Now()
	rec := &recording{
		ops: []opRecord{
			{kind: kHit, start: start, lat: 2 * time.Millisecond, seq: 1},
			{kind: kDelete, start: start, lat: 2 * time.Millisecond, seq: 2},
		},
		kernelMS:    []float64{19, 20, 21},
		completed:   []int{2},
		completedAt: []time.Duration{time.Second},
	}
	m := endToEndMetrics(rec, []float64{3}, 50)
	if got := m["drill_hit_p50_ms"]; got.Value != 1 || got.wall != 2 {
		t.Errorf("drill_hit_p50_ms = %v (wall %v), want 1 (wall 2)", got.Value, got.wall)
	}
	if got := m["ops_per_s"]; got.Value != 4 || got.wall != 2 {
		t.Errorf("ops_per_s = %v (wall %v), want 4 (wall 2)", got.Value, got.wall)
	}
	if m["setup_s"].Value != 3 || m["max_rss_mb"].Value != 50 {
		t.Errorf("setup_s %v, max_rss_mb %v: want them unscaled", m["setup_s"].Value, m["max_rss_mb"].Value)
	}
	if (&recording{}).hostScale() != 1 {
		t.Error("a run without kernel samples is not reported as measured")
	}
}
