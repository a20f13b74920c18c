// Command perfbench benchmarks the served path of smart drill-down: a real
// internal/server instance behind a loopback socket, driven through the
// client SDK with the smartdrilld serving defaults (estimated mw, default
// K, the shared answer cache, background refinement, write-through
// snapshots where durable, kept in memory while timed — see backend.go).
// Each workload is a closed loop of scripted
// analyst sessions generated from the seed before the clock starts.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload census-explore --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, measured with no
// tracing code installed. With --trace 1 it runs the same scripts twice —
// untraced, then traced — and reports the per-layer metrics, including
// the tracing overhead. Every answer is checked (see check.go); a failed
// check prints the result with "correct": false and exits 1. The last
// line of standard output is the JSON result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"smartdrill/api"
	"smartdrill/client"
	"smartdrill/internal/server"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed: scripts and session seeds derive from it")
	seconds := fs.Int("seconds", 10, "length of each timed section")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics untraced, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: need --workload {%s}, --seconds >= 1, --trace 0|1\n", strings.Join(names, ","))
		return 2
	}
	out, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// pass is one timed section against one server.
type pass struct {
	rec     *recording
	elapsed time.Duration
}

// opsPerSec is the pass's rate at reference-host speed (calib.go), so the
// tracing overhead is not confused with the host changing speed between
// the two passes.
func (p pass) opsPerSec() float64 { return p.rec.opsPerSec() / p.rec.hostScale() }

// measure runs one workload and returns the result line; the report
// lines before it go to out.
func measure(w *workload, seed int64, dur time.Duration, traced bool, out io.Writer) (*result, error) {
	tab := w.table()
	ctx := context.Background()

	// Set-up: server.New, RegisterDataset (index build) and drained
	// warmers, repeated on fresh table copies; the median is setup_s.
	var setups []float64
	var live *serving
	var liveTab *table.Table
	for i := 0; i < w.setupReps; i++ {
		cp := freshCopy(tab)
		runtime.GC()
		s, d, err := startServer(w, cp, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < w.setupReps-1 {
			s.stop()
			continue
		}
		live, liveTab = s, cp
	}
	tab = nil

	first := pass{}
	var rssMB float64
	first.rec, first.elapsed, rssMB = runClients(w, liveTab, live.base, seed, dur, nil)
	passes := []pass{first}
	final := first

	var tr *tracer
	var li layerInputs
	if traced {
		live.stop()
		tr = newTracer()
		cp := freshCopy(liveTab)
		start := time.Now()
		cp.Index().Warm()
		li.indexWarm = time.Since(start)
		runtime.GC()
		var err error
		live, _, err = startServer(w, cp, tr)
		if err != nil {
			return nil, err
		}
		liveTab = cp
		if li.healthBefore, err = cacheHealth(ctx, live.base); err != nil {
			return nil, err
		}
		stopSampler := sampleSessions(live.srv, &li.sessionsLive)
		var second pass
		second.rec, second.elapsed, _ = runClients(w, liveTab, live.base, seed, dur, tr)
		stopSampler()
		if li.healthAfter, err = cacheHealth(ctx, live.base); err != nil {
			return nil, err
		}
		li.persistFailures = live.srv.PersistFailures()
		passes = append(passes, second)
		final = second
		li.opsUntraced, li.opsTraced = first.opsPerSec(), second.opsPerSec()
	}

	// Correctness, outside every timed section.
	ck := newChecker()
	k := final.rec.k
	if k == 0 {
		k = 3 // no session was created; the server default
	}
	rp := newReplayer(liveTab, k)
	cover := math.NaN()
	for _, p := range passes {
		ck.checkDrills(ctx, rp, p.rec)
		if c := ck.checkRefines(rp, p.rec.refines); !math.IsNaN(c) {
			cover = c
		}
	}
	var kept int
	if w.durable {
		kept = len(final.rec.kept)
		dir, err := tempDir("snap-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		before, after, recovered, err := restartTrees(ctx, w, live, liveTab, dir, final.rec.kept, tr)
		if err != nil {
			return nil, err
		}
		if recovered < kept {
			ck.fail("restart recovered %d sessions, %d were kept alive", recovered, kept)
		}
		ck.checkTrees(before, after)
		li.diskSaves = live.diskSaves
	} else {
		live.stop()
	}

	var runErrs []string
	for _, p := range passes {
		runErrs = append(runErrs, p.rec.errs...)
	}
	var attempted, failed int64
	for _, o := range final.rec.ops {
		attempted += o.attempts
		failed += o.failed
	}

	cfg := configRecord(w, seed, dur, traced, liveTab, rp, final.rec, k)
	fmt.Fprintf(out, "workload %s seed %d: %d clients, %d rows x %d columns, %d ops in %.2fs\n",
		w.name, seed, w.clients, liveTab.NumRows(), liveTab.NumCols(), len(final.rec.ops), final.elapsed.Seconds())
	cfgJSON, _ := json.Marshal(cfg)
	fmt.Fprintf(out, "config %s\n", cfgJSON)

	var metrics map[string]metric
	var defs []metricDef
	if traced {
		if w.session.SampleMemory > 0 {
			if err := rp.replaySamples(w.session, final.rec.sampled); err != nil {
				return nil, err
			}
		}
		li.rec, li.spans, li.rp, li.ciCoverage = final.rec, tr.snapshot(), rp, cover
		li.mwBound = weight.NewSize(liveTab.NumCols()).MaxWeight(liveTab.NumCols())
		metrics, defs = layerMetrics(li), perLayer()
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl.gz", w.name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	} else {
		metrics, defs = endToEndMetrics(final.rec, setups, rssMB), endToEnd
		for _, d := range defs {
			if m := metrics[d.name]; m.Value <= 0 {
				runErrs = append(runErrs, fmt.Sprintf("end-to-end metric %s has no samples", d.name))
			}
		}
	}
	scale := final.rec.hostScale()
	fmt.Fprintf(out, "host: reference kernel median %.4f ms over %d samples; times and rates below are at reference speed (%.1f ms), wall-clock values beside them\n",
		refKernelMS/scale, len(final.rec.kernelMS), refKernelMS)
	for _, d := range defs {
		m := metrics[d.name]
		line := fmt.Sprintf("  %-34s %14.4f %-12s", d.name, m.Value, d.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" (n=%d)", m.n)
		}
		if m.wall > 0 {
			line += fmt.Sprintf(" wall %.4f", m.wall)
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "  %-34s %14.6f %s (%d failed of %d attempts)\n", "error_rate", ratio(float64(failed), float64(attempted)), "ratio", failed, attempted)
	if !traced {
		// Tails, reported but not gated: their run-to-run spread is wider
		// than any bound the benchmark may set.
		lat := latencies(final.rec.ops)
		for _, t := range []struct {
			name, kind string
			q          float64
		}{
			{"child_drill_p90_ms", kChild, 0.9},
			{"drill_hit_p90_ms", kHit, 0.9},
			{"drill_hit_p99_ms", kHit, 0.99},
			{"stream_first_rule_p90_ms", "stream_first", 0.9},
		} {
			if xs := lat[t.kind]; len(xs) > 0 {
				v := quantile(xs, t.q)
				fmt.Fprintf(out, "  %-34s %14.4f %-12s (n=%d) wall %.4f\n", t.name, v*scale, "ms", len(xs), v)
			}
		}
	}
	if traced {
		printBreakdown(out, metrics)
	}
	checks := make([]string, 0, len(ck.checked))
	for name, n := range ck.checked {
		checks = append(checks, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(checks)
	fmt.Fprintf(out, "checks %s; kept sessions %d\n", strings.Join(checks, " "), kept)
	for i, f := range ck.failures {
		if i == 20 {
			fmt.Fprintf(out, "CHECK FAILED: ... %d more\n", len(ck.failures)-20)
			break
		}
		fmt.Fprintf(out, "CHECK FAILED: %s\n", f)
	}
	if len(runErrs) > 0 {
		return nil, errors.New(strings.Join(runErrs, "; "))
	}
	return &result{Correct: ck.ok(), Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// restartTrees fetches the trees of the sessions the clients kept alive,
// stops the server, writes its snapshot records to a DirBackend in dir
// (timing each write into live.diskSaves), starts a fresh server over
// that directory, recovers the sessions and fetches their trees again.
func restartTrees(ctx context.Context, w *workload, live *serving, tab *table.Table, dir string, kept []string, tr *tracer) (before, after map[string]*api.Tree, recovered int, err error) {
	c := client.New(live.base)
	before = map[string]*api.Tree{}
	for _, id := range kept {
		t, err := c.Tree(ctx, id)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("fetching kept session %s: %w", id, err)
		}
		before[id] = t
	}
	live.stop()
	b, err := server.NewDirBackend(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	if live.diskSaves, err = live.mem.flushTo(b); err != nil {
		return nil, nil, 0, fmt.Errorf("writing snapshots to %s: %w", dir, err)
	}
	var backend server.SessionBackend = b
	if tr != nil {
		backend = &tracedBackend{inner: b, t: tr}
	}
	cfg := serverConfig(w, backend)
	cfg.WarmChildren = 0 // recovery does not need warm caches
	srv := server.New(cfg)
	srv.RegisterDataset(datasetName, tab)
	if recovered, err = srv.RecoverSessions(); err != nil {
		return nil, nil, 0, fmt.Errorf("recovering sessions: %w", err)
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	restarted, err := serveHandler(h)
	if err != nil {
		return nil, nil, 0, err
	}
	restarted.srv = srv
	defer restarted.stop()
	c = client.New(restarted.base)
	after = map[string]*api.Tree{}
	for _, id := range kept {
		if t, err := c.Tree(ctx, id); err == nil {
			after[id] = t
		}
	}
	return before, after, recovered, nil
}

// cacheHealth reads the dataset's answer-cache counters from /v1/health.
func cacheHealth(ctx context.Context, base string) (cacheCounters, error) {
	h, err := client.New(base).Health(ctx)
	if err != nil {
		return cacheCounters{}, err
	}
	for _, d := range h.Datasets {
		if d.Name == datasetName && d.Cache != nil {
			c := d.Cache
			return cacheCounters{entries: c.Entries, hits: c.Hits, misses: c.Misses, waits: c.SingleflightWaits, warmed: c.Warmed}, nil
		}
	}
	return cacheCounters{}, nil
}

// sampleSessions records the largest live-session count seen every 50ms
// until the returned stop function is called.
func sampleSessions(srv *server.Server, max *int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := srv.SessionCount(); n > *max {
				*max = n
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// configRecord is recorded with every result: the machine, the build, the
// workload and the effective serving configuration.
func configRecord(w *workload, seed int64, dur time.Duration, traced bool, tab *table.Table, rp *replayer, rec *recording, k int) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	mws := append([]float64(nil), rp.mwUsed...)
	sort.Float64s(mws)
	var mwMin, mwMax float64
	if len(mws) > 0 {
		mwMin, mwMax = mws[0], mws[len(mws)-1]
	}
	return map[string]any{
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"num_cpu":         runtime.NumCPU(),
		"go_version":      runtime.Version(),
		"commit":          commit,
		"workload":        w.name,
		"seed":            seed,
		"seconds":         dur.Seconds(),
		"traced":          traced,
		"clients":         w.clients,
		"closed_loop":     true,
		"rows":            tab.NumRows(),
		"columns":         tab.NumCols(),
		"durable":         w.durable,
		"session_backend": backendName(w),
		"warm_children":   w.warmChildren,
		"create_request":  w.session,
		"serving": map[string]any{
			"default_k":             3,
			"workers_config":        0,
			"brs_workers_effective": runtime.NumCPU(),
			"brs_workers_note":      "server Workers 0 reaches brs as 0, which runs NumCPU workers under the Count aggregate",
			"mw":                    "estimated per expansion (drill.EstimateMaxWeight)",
			"mw_estimated_min":      mwMin,
			"mw_estimated_max":      mwMax,
			"mw_weighter_bound":     weight.NewSize(tab.NumCols()).MaxWeight(tab.NumCols()),
			"stream_budget_ms":      5000,
			"stream_max_rules":      3,
			"background_refine":     true,
			"cache_entries":         256,
			"max_sessions":          1024,
			"kept_sessions":         len(rec.kept),
			"setup_repetitions":     w.setupReps,
			"think_ms":              float64(w.think) / 1e6,
			"reference_kernel_ms":   refKernelMS / rec.hostScale(),
			"reference_kernel_runs": len(rec.kernelMS),
			"host_scale":            rec.hostScale(),
		},
	}
}

// backendName names the session backend a workload is timed with.
func backendName(w *workload) string {
	if w.durable {
		return "memBackend (records written to a DirBackend after the run, for the restart check)"
	}
	return "none"
}

// printBreakdown prints the per-route self-time table of a traced run.
func printBreakdown(out io.Writer, m map[string]metric) {
	fmt.Fprintf(out, "self time p50 by route (ms):  %-10s %12s %12s %12s\n", "route", "client", "handler", "persist")
	for _, r := range routes {
		fmt.Fprintf(out, "                              %-10s %12.4f %12.4f %12.4f\n", r,
			m["route."+r+".client_self_p50_ms"].Value, m["route."+r+".handler_self_p50_ms"].Value, m["route."+r+".persist_p50_ms"].Value)
	}
	fmt.Fprintf(out, "replayed layers p50 (ms): filter %.4f  mw %.4f  brs %.4f  drill %.4f  sample %.4f  count_exact %.4f\n",
		m["storage.filter_p50_ms"].Value, m["drill.mw_estimate_p50_ms"].Value, m["brs.run_p50_ms"].Value,
		m["engine.drill_p50_ms"].Value, m["sampling.get_sample_p50_ms"].Value, m["storage.count_exact_p50_ms"].Value)
}
