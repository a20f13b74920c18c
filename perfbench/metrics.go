package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind a percentile (0 for other metrics).
	n int
	// wall is the wall-clock value of a time or rate reported at
	// reference-host speed (see calib.go); 0 for other metrics.
	wall float64
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an analyst sees, reported with tracing off.
// Latencies are taken at the SDK call.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"max_rss_mb", "MB"},
	{"create_p50_ms", "ms"},
	{"collapse_p50_ms", "ms"},
	{"tree_p50_ms", "ms"},
	{"root_drill_p50_ms", "ms"},
	{"child_drill_p50_ms", "ms"},
	{"drill_hit_p50_ms", "ms"},
	{"stream_first_rule_p50_ms", "ms"},
	{"stream_done_p50_ms", "ms"},
}

// routes are the API routes the scripts drive.
var routes = []string{"create", "drill", "collapse", "tree", "stream", "delete"}

// perLayer lists the traced run's metrics. Layers that do no work on a
// workload read zero.
func perLayer() []metricDef {
	defs := []metricDef{
		{"client.self_p50_ms", "ms"},
		{"client.attempts_per_op", "count/op"},
		{"client.response_kb_p50", "KB"},
		{"client.sse_events", "count"},
		{"client.error_rate", "ratio"},
		{"server.create.handler_p50_ms", "ms"},
		{"server.drill.handler_p50_ms", "ms"},
		{"server.collapse.handler_p50_ms", "ms"},
		{"server.tree.handler_p50_ms", "ms"},
		{"server.stream.handler_p50_ms", "ms"},
		{"server.status_4xx", "count"},
		{"server.status_5xx", "count"},
		{"server.shed_429", "count"},
		{"server.sessions_live", "count"},
		{"persist.save_p50_ms", "ms"},
		{"persist.save_p99_ms", "ms"},
		{"persist.saves_per_mutation", "count/op"},
		{"persist.bytes_per_save", "bytes"},
		{"persist.bytes_written", "bytes"},
		{"persist.share_of_handler", "ratio"},
		{"persist.failures", "count"},
		{"persist.load_p50_ms", "ms"},
		{"persist.disk_save_p50_ms", "ms"},
		{"search.hits", "count"},
		{"search.misses", "count"},
		{"search.hit_ratio", "ratio"},
		{"search.singleflight_waits", "count"},
		{"search.entries", "count"},
		{"search.warmed", "count"},
		{"drill.mw", "weight"},
		{"drill.mw_bound", "weight"},
		{"drill.mw_estimate_p50_ms", "ms"},
		{"engine.drill_p50_ms", "ms"},
		{"brs.run_p50_ms", "ms"},
		{"brs.passes", "count/search"},
		{"brs.candidates_counted", "count/search"},
		{"brs.candidates_pruned", "count/search"},
		{"brs.candidates_reused", "count/search"},
		{"brs.prune_ratio", "ratio"},
		{"brs.candidate_cap_hits", "count"},
		{"table.postings_read", "count/search"},
		{"table.bitmap_words_read", "count/search"},
		{"table.rows_scanned", "count/search"},
		{"table.index_warm_s", "s"},
		{"storage.filter_p50_ms", "ms"},
		{"storage.count_exact_p50_ms", "ms"},
		{"sampling.find", "count"},
		{"sampling.combine", "count"},
		{"sampling.create", "count"},
		{"sampling.reuse_ratio", "ratio"},
		{"sampling.sampled_rows_scanned", "count"},
		{"sampling.get_sample_p50_ms", "ms"},
		{"sampling.ci_coverage", "ratio"},
		{"trace.overhead_pct", "%"},
	}
	for _, r := range routes {
		defs = append(defs,
			metricDef{"route." + r + ".client_self_p50_ms", "ms"},
			metricDef{"route." + r + ".handler_self_p50_ms", "ms"},
			metricDef{"route." + r + ".persist_p50_ms", "ms"},
		)
	}
	return defs
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies collects the successful operations' latencies in ms by kind.
func latencies(ops []opRecord) map[string][]float64 {
	out := map[string][]float64{}
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		out[o.kind] = append(out[o.kind], ms(o.lat))
		if o.kind == kStream && o.first > 0 {
			out["stream_first"] = append(out["stream_first"], ms(o.first))
		}
	}
	return out
}

// endToEndMetrics computes the analyst-visible metrics of one untraced
// run. Times and the rate are scaled to the reference host (calib.go).
func endToEndMetrics(rec *recording, setups []float64, rssMB float64) map[string]metric {
	lat := latencies(rec.ops)
	scale := rec.hostScale()
	pct := func(kind string, q float64) metric {
		v := quantile(lat[kind], q)
		return metric{Value: v * scale, Unit: "ms", n: len(lat[kind]), wall: v}
	}
	ops := rec.opsPerSec()
	return map[string]metric{
		"setup_s":                  {Value: quantile(setups, 0.5), Unit: "s", n: len(setups)},
		"ops_per_s":                {Value: ops / scale, Unit: "1/s", wall: ops},
		"max_rss_mb":               {Value: rssMB, Unit: "MB"},
		"create_p50_ms":            pct(kCreate, 0.5),
		"collapse_p50_ms":          pct(kCollapse, 0.5),
		"tree_p50_ms":              pct(kTree, 0.5),
		"root_drill_p50_ms":        pct(kRootDrill, 0.5),
		"child_drill_p50_ms":       pct(kChild, 0.5),
		"drill_hit_p50_ms":         pct(kHit, 0.5),
		"stream_first_rule_p50_ms": pct("stream_first", 0.5),
		"stream_done_p50_ms":       pct(kStream, 0.5),
	}
}

// opsPerSec is the completed-operation rate summed over clients, each
// client's rate taken over the whole sessions it finished before the
// deadline: a session cut by the deadline would weigh its cheap or its
// expensive half alone.
func (r *recording) opsPerSec() float64 {
	rate := 0.0
	for i, n := range r.completed {
		failed := 0
		for _, o := range r.ops {
			if o.client == i && o.seq <= n && o.err != nil {
				failed++
			}
		}
		if at := r.completedAt[i]; at > 0 {
			rate += float64(n-failed) / at.Seconds()
		}
	}
	return rate
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	rec             *recording
	spans           []*span
	rp              *replayer
	ciCoverage      float64
	healthBefore    cacheCounters
	healthAfter     cacheCounters
	sessionsLive    int
	persistFailures uint64
	mwBound         float64
	indexWarm       time.Duration
	opsUntraced     float64
	opsTraced       float64
	diskSaves       []time.Duration
}

// cacheCounters is a dataset's answer-cache block from /v1/health.
type cacheCounters struct {
	entries                     int
	hits, misses, waits, warmed int64
}

// layerMetrics computes the traced run's per-layer metrics.
func layerMetrics(in layerInputs) map[string]metric {
	m := map[string]metric{}
	for _, d := range perLayer() {
		m[d.name] = metric{Unit: d.unit}
	}
	set := func(name string, v float64) {
		d := m[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		d.Value = v
		m[name] = d
	}

	// Client: attempts and failures under retries, SSE events.
	var attempts, failed int64
	for _, o := range in.rec.ops {
		attempts += o.attempts
		failed += o.failed
	}
	set("client.attempts_per_op", ratio(float64(attempts), float64(len(in.rec.ops))))
	set("client.error_rate", ratio(float64(failed), float64(attempts)))
	set("client.sse_events", float64(in.rec.sseEvents))

	// Spans: SDK call → HTTP attempt → handler → persist.
	byParent := map[int64][]*span{}
	for _, s := range in.spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	var respKB, clientSelf, saves []float64
	routeClient := map[string][]float64{}
	routeHandler := map[string][]float64{}
	routePersist := map[string][]float64{}
	handlerMS := map[string][]float64{}
	var status4xx, status5xx, shed int
	var mutatingTime, mutatingSave time.Duration
	var mutating, mutatingSaves int
	var saveBytes int64
	var loads []float64
	for _, s := range in.spans {
		switch {
		case strings.HasPrefix(s.Name, "sdk."):
			route := strings.TrimPrefix(s.Name, "sdk.")
			self := s.dur()
			for _, a := range byParent[s.ID] {
				for _, h := range byParent[a.ID] {
					self -= h.dur()
				}
			}
			clientSelf = append(clientSelf, ms(self))
			routeClient[route] = append(routeClient[route], ms(self))
		case s.Name == "http.attempt":
			respKB = append(respKB, float64(s.Bytes)/1024)
		case strings.HasPrefix(s.Name, "server."):
			route := strings.TrimPrefix(s.Name, "server.")
			handlerMS[route] = append(handlerMS[route], ms(s.dur()))
			var persist time.Duration
			nsaves := 0
			for _, p := range byParent[s.ID] {
				if strings.HasPrefix(p.Name, "persist.") {
					persist += p.dur()
				}
				if p.Name == "persist.save" {
					nsaves++
				}
			}
			routeHandler[route] = append(routeHandler[route], ms(s.dur()-persist))
			routePersist[route] = append(routePersist[route], ms(persist))
			switch {
			case s.Status == 429:
				shed++
			case s.Status >= 500:
				status5xx++
			case s.Status >= 400:
				status4xx++
			}
			switch route {
			case "create", "drill", "collapse", "stream":
				mutating++
				mutatingSaves += nsaves
				mutatingTime += s.dur()
				mutatingSave += persist
			}
		case s.Name == "persist.save":
			saves = append(saves, ms(s.dur()))
			saveBytes += s.Bytes
		case s.Name == "persist.load":
			loads = append(loads, ms(s.dur()))
		}
	}
	set("client.self_p50_ms", quantile(clientSelf, 0.5))
	set("client.response_kb_p50", quantile(respKB, 0.5))
	for _, r := range []string{"create", "drill", "collapse", "tree", "stream"} {
		set("server."+r+".handler_p50_ms", quantile(handlerMS[r], 0.5))
	}
	for _, r := range routes {
		set("route."+r+".client_self_p50_ms", quantile(routeClient[r], 0.5))
		set("route."+r+".handler_self_p50_ms", quantile(routeHandler[r], 0.5))
		set("route."+r+".persist_p50_ms", quantile(routePersist[r], 0.5))
	}
	set("server.status_4xx", float64(status4xx))
	set("server.status_5xx", float64(status5xx))
	set("server.shed_429", float64(shed))
	set("server.sessions_live", float64(in.sessionsLive))

	set("persist.save_p50_ms", quantile(saves, 0.5))
	set("persist.save_p99_ms", quantile(saves, 0.99))
	set("persist.saves_per_mutation", ratio(float64(mutatingSaves), float64(mutating)))
	set("persist.bytes_per_save", ratio(float64(saveBytes), float64(len(saves))))
	set("persist.bytes_written", float64(saveBytes))
	set("persist.share_of_handler", ratio(float64(mutatingSave), float64(mutatingTime)))
	set("persist.failures", float64(in.persistFailures))
	set("persist.load_p50_ms", quantile(loads, 0.5))
	var disk []float64
	for _, d := range in.diskSaves {
		disk = append(disk, ms(d))
	}
	set("persist.disk_save_p50_ms", quantile(disk, 0.5))

	// Search service: deltas of the dataset's cache counters.
	hits := float64(in.healthAfter.hits - in.healthBefore.hits)
	misses := float64(in.healthAfter.misses - in.healthBefore.misses)
	set("search.hits", hits)
	set("search.misses", misses)
	set("search.hit_ratio", ratio(hits, hits+misses))
	set("search.singleflight_waits", float64(in.healthAfter.waits-in.healthBefore.waits))
	set("search.entries", float64(in.healthAfter.entries))
	set("search.warmed", float64(in.healthAfter.warmed))

	// Drill, BRS and table: served per-request counters of every executed
	// search (DrillResponse.Search), and the replayed layers' timings.
	rp := in.rp
	set("drill.mw", quantile(rp.mwUsed, 0.5))
	set("drill.mw_bound", in.mwBound)
	set("drill.mw_estimate_p50_ms", quantile(rp.mwMS, 0.5))
	set("engine.drill_p50_ms", quantile(rp.drillMS, 0.5))
	set("brs.run_p50_ms", quantile(rp.brsMS, 0.5))
	var searches, capHits float64
	var passes, counted, pruned, reused, postings, bitmap, rows, sampledRows float64
	var find, combine, create float64
	for _, o := range in.rec.ops {
		switch o.access {
		case "Find":
			find++
		case "Combine":
			combine++
		case "Create":
			create++
		}
		s := o.search
		if o.err != nil || s == nil || s.CacheHits > 0 || s.SingleflightWaits > 0 {
			continue
		}
		searches++
		passes += float64(s.Passes)
		counted += float64(s.CandidatesCounted)
		pruned += float64(s.CandidatesPruned)
		reused += float64(s.CandidatesReused)
		postings += float64(s.PostingsRead)
		bitmap += float64(s.BitmapWordsRead)
		rows += float64(s.RowsScanned)
		sampledRows += float64(s.SampledRowsScanned)
		if s.CandidateCapHit {
			capHits++
		}
	}
	set("brs.passes", ratio(passes, searches))
	set("brs.candidates_counted", ratio(counted, searches))
	set("brs.candidates_pruned", ratio(pruned, searches))
	set("brs.candidates_reused", ratio(reused, searches))
	set("brs.prune_ratio", ratio(pruned, counted+pruned))
	set("brs.candidate_cap_hits", capHits)
	set("table.postings_read", ratio(postings, searches))
	set("table.bitmap_words_read", ratio(bitmap, searches))
	set("table.rows_scanned", ratio(rows, searches))
	set("table.index_warm_s", in.indexWarm.Seconds())
	set("storage.filter_p50_ms", quantile(rp.filterMS, 0.5))
	set("storage.count_exact_p50_ms", quantile(rp.countMS, 0.5))

	set("sampling.find", find)
	set("sampling.combine", combine)
	set("sampling.create", create)
	set("sampling.reuse_ratio", ratio(find+combine, find+combine+create))
	set("sampling.sampled_rows_scanned", sampledRows)
	set("sampling.get_sample_p50_ms", quantile(rp.sampleMS, 0.5))
	set("sampling.ci_coverage", in.ciCoverage)

	set("trace.overhead_pct", 100*ratio(in.opsUntraced-in.opsTraced, in.opsUntraced))
	return m
}
