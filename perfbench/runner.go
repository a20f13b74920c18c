package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartdrill/api"
	"smartdrill/client"
	"smartdrill/internal/server"
	"smartdrill/internal/table"
)

// serving is one running server: the internal/server instance behind a
// real loopback listener, configured with the smartdrilld serving defaults
// (background refine on, default K, workers, stream budget and cache
// size) plus the workload's warming and durability settings.
type serving struct {
	srv     *server.Server
	hs      *http.Server
	done    chan struct{}
	base    string
	backend server.SessionBackend
	// mem holds the durable workload's snapshot records (nil otherwise).
	mem *memBackend
	// diskSaves times the records' writes to a DirBackend when the
	// durable workload restarts (restartTrees).
	diskSaves []time.Duration
}

// serverConfig is the effective configuration a workload serves with.
func serverConfig(w *workload, backend server.SessionBackend) server.Config {
	return server.Config{
		BackgroundRefine: true,
		WarmChildren:     w.warmChildren,
		Backend:          backend,
		Logger:           log.New(io.Discard, "", log.LstdFlags|log.Lmicroseconds),
	}
}

// startServer builds a server, registers tab and drains the warmers — the
// set-up a smartdrilld process pays before its first request — and
// reports how long that took. It then serves on a loopback listener.
// With a tracer, the handler and the session backend are wrapped to
// record spans; without one, nothing is wrapped.
func startServer(w *workload, tab *table.Table, tr *tracer) (*serving, time.Duration, error) {
	start := time.Now()
	var backend server.SessionBackend
	var mem *memBackend
	if w.durable {
		mem = newMemBackend()
		backend = mem
		if tr != nil {
			backend = &tracedBackend{inner: mem, t: tr}
		}
	}
	srv := server.New(serverConfig(w, backend))
	srv.RegisterDataset(datasetName, tab)
	srv.WaitWarmers()
	setup := time.Since(start)

	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	s, err := serveHandler(h)
	if err != nil {
		return nil, 0, err
	}
	s.srv, s.backend, s.mem = srv, backend, mem
	return s, setup, nil
}

// serveHandler serves h on a loopback listener with the smartdrilld
// header and idle timeouts.
func serveHandler(h http.Handler) (*serving, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serving{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 120 * time.Second},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed after stop
	}()
	return s, nil
}

// stop shuts the listener down and waits for in-flight requests, the
// serving goroutine, background refiners and warmers.
func (s *serving) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
	if s.srv != nil {
		s.srv.WaitRefiners()
		s.srv.WaitWarmers()
	}
}

// countingTransport counts HTTP attempts and failed attempts (transport
// errors and non-2xx statuses, 429 sheds included) under the SDK's retry
// loop, so retried failures still show. It records no spans and is used
// with tracing off too.
type countingTransport struct {
	next     http.RoundTripper
	attempts atomic.Int64
	failed   atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.attempts.Add(1)
	resp, err := c.next.RoundTrip(req)
	if err != nil || resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.failed.Add(1)
	}
	return resp, err
}

// opRecord is one timed SDK operation.
type opRecord struct {
	client int
	seq    int // per-client operation number (trace correlation)
	kind   string
	start  time.Time
	lat    time.Duration
	// first is the time to the first SSE rule event (streams only; zero
	// when the stream produced none).
	first    time.Duration
	access   string
	search   *api.SearchStats
	attempts int64
	failed   int64
	err      error
}

// Operation kinds. Drills are classified by their answer: the root
// expansion, a cache hit, a singleflight wait, or an executed search
// below the root (a miss).
const (
	kCreate    = "create"
	kRootDrill = "root_drill"
	kChild     = "child_drill"
	kHit       = "drill_hit"
	kWait      = "drill_wait"
	kCollapse  = "collapse"
	kTree      = "tree"
	kStream    = "stream"
	kDelete    = "delete"
)

// worker is one closed-loop client.
type worker struct {
	id        int
	w         *workload
	freq      map[string]map[string]int
	c         *client.Client
	transport *http.Transport
	ct        *countingTransport
	tr        *tracer
	rec       *recording
	seeds     func() int64
	seq       int
	// exhausted reports the script ran out before the deadline.
	exhausted bool
	// doneOps and doneAt count the operations of the sessions completed
	// so far and when the last one completed; doneThink is the time spent
	// until then outside operations (think time, reference kernel).
	doneOps    int
	doneAt     time.Time
	doneThink  time.Duration
	thought    time.Duration
	lastKernel time.Time
}

// recording gathers everything a run observed through the SDK: timed
// operations and the answers the correctness checks need.
type recording struct {
	mu  sync.Mutex
	ops []opRecord
	// answers holds the first exact drill answer per answerKey; every
	// later answer for the same key — a cache hit, or a miss after an
	// eviction — is compared with it as it arrives (hitChecks counts the
	// hits so compared), and the first answers are checked against the
	// replay after the run.
	answers   map[string]*drillAnswer
	hitChecks int
	// mismatches lists answers that differed from the first answer.
	mismatches []string
	// refines holds every SSE refine event with the provisional node it
	// replaced.
	refines []refineEvent
	// sampled holds every sampled expansion, in session order, for the
	// traced sample replay.
	sampled []sampledExpansion
	// kept lists sessions alive at the end of the run (durable workload).
	kept []string
	// sseEvents counts every SSE event received.
	sseEvents int
	// errs lists problems with the run itself (not with answers).
	errs []string
	// kernelMS holds the reference kernel's times during the run.
	kernelMS []float64
	// k is the rules-per-expansion the server reported for the sessions.
	k int
	// completed and completedAt are, per client, the operations of the
	// sessions finished before the deadline and the time until the last
	// finished, less the time spent outside operations.
	completed   []int
	completedAt []time.Duration
}

// drillAnswer is one exact expansion as served.
type drillAnswer struct {
	seed     int64
	rule     map[string]string
	column   string
	hit      bool
	children []*api.Node
}

// refineEvent is one provisional rule and its refined exact count.
type refineEvent struct {
	rule        map[string]string
	provisional *api.Node
	exact       float64
}

// sampledExpansion is one expansion served from the session's sample
// handler (access Find, Combine or Create).
type sampledExpansion struct {
	session string
	seed    int64
	rule    map[string]string
	access  string
}

// observe files one exact drill answer.
func (r *recording) observe(d drillAnswer) {
	key := answerKey(d.seed, d.rule, d.column)
	r.mu.Lock()
	defer r.mu.Unlock()
	first, ok := r.answers[key]
	if !ok {
		if r.answers == nil {
			r.answers = map[string]*drillAnswer{}
		}
		r.answers[key] = &d
		return
	}
	if d.hit {
		r.hitChecks++
	}
	if err := sameServed(d.children, first.children); err != nil {
		r.mismatches = append(r.mismatches, fmt.Sprintf("answer for %s (cache hit %v) differs from the first answer (cache hit %v): %v", key, d.hit, first.hit, err))
	}
}

func (r *recording) addOp(o opRecord) {
	r.mu.Lock()
	r.ops = append(r.ops, o)
	r.mu.Unlock()
}

// runClients runs every client's script against base until the deadline
// and returns the recording, the timed section's length and the peak
// resident set seen during it (sampled every 10ms). Scripts are generated
// before the clock starts.
func runClients(w *workload, tab *table.Table, base string, seed int64, dur time.Duration, tr *tracer) (*recording, time.Duration, float64) {
	freq := valueCounts(tab)
	rec := &recording{completed: make([]int, w.clients), completedAt: make([]time.Duration, w.clients)}
	workers := make([]*worker, w.clients)
	scripts := make([][]step, w.clients)
	var sessionSeq atomic.Int64
	for i := range workers {
		rt, ct, tp := newTransport(tr)
		workers[i] = &worker{
			id: i, w: w, freq: freq, transport: tp, ct: ct, tr: tr, rec: rec,
			c: client.New(base, client.WithHTTPClient(&http.Client{Transport: rt})),
			seeds: func() int64 {
				return sessionSeed(seed, sessionSeq.Add(1))
			},
		}
		g := newScriptGen(seed, i)
		for s := 0; s < w.maxSessions; s++ {
			scripts[i] = append(scripts[i], w.script(g)...)
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	stopRSS := sampleRSS()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(wk *worker, script []step) {
			defer wg.Done()
			wk.run(script, start, deadline)
		}(wk, scripts[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	peakMB := stopRSS()
	for _, wk := range workers {
		wk.transport.CloseIdleConnections()
	}
	for i, wk := range workers {
		if wk.exhausted {
			rec.errs = append(rec.errs, fmt.Sprintf("client %d ran out of script before the deadline", i))
		}
	}
	return rec, elapsed, peakMB
}

// sampleRSS samples the process's resident set every 10ms until the
// returned function is called, which reports the peak in MB.
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if rss := residentBytes(); rss > peak {
				peak = rss
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak) / (1 << 20)
	}
}

// residentBytes reads the resident set size from /proc/self/statm
// (second field, in pages); 0 when unavailable.
func residentBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// newTransport builds one client's HTTP stack: a fresh connection pool
// under the failure counter, under the span recorder when tracing.
func newTransport(tr *tracer) (http.RoundTripper, *countingTransport, *http.Transport) {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	ct := &countingTransport{next: tp}
	if tr == nil {
		return ct, ct, tp
	}
	return &tracingTransport{next: ct, t: tr}, ct, tp
}

// sessionSeed derives a distinct non-zero session seed from the workload
// seed (splitmix64).
func sessionSeed(seed, n int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>34) + 1
}

// sessionState is a client's view of its current session: the mirror of
// the displayed tree, built from responses.
type sessionState struct {
	id      string
	seed    int64
	columns []string
	root    *api.Node
	// access records how each node's latest expansion was answered.
	access map[string]string
	// exact reports whether the server searches a node's view exactly
	// rather than on a sample.
	exact func(*api.Node) bool
}

// cacheable reports whether re-expanding n would be answered from the
// answer cache: its latest expansion was exact.
func (s *sessionState) cacheable(n *api.Node) bool {
	a := s.access[n.ID]
	return a == "direct" || a == "cache"
}

// run executes script steps until the deadline passes. The session in
// progress at the deadline is kept (durable workload) or deleted outside
// the timed section.
func (wk *worker) run(script []step, start, deadline time.Time) {
	ctx := context.Background()
	var sess *sessionState
	wk.exhausted = true
	defer func() {
		wk.rec.mu.Lock()
		wk.rec.completed[wk.id], wk.rec.completedAt[wk.id] = wk.doneOps, wk.doneAt.Sub(start)-wk.doneThink
		wk.rec.mu.Unlock()
	}()
	for _, st := range script {
		if time.Now().After(deadline) {
			wk.exhausted = false
			break
		}
		if st.kind != stCreate && sess == nil {
			continue // the create failed; skip to the next session
		}
		if st.toggle && !sess.cacheable(sess.resolve(st.path, st.depth)) {
			continue
		}
		if wk.w.think > 0 {
			t := time.Now()
			time.Sleep(wk.w.think)
			wk.thought += time.Since(t)
		}
		if wk.id == 0 && time.Since(wk.lastKernel) > kernelEvery {
			// The host-speed reference (calib.go), untimed like think
			// time.
			t := time.Now()
			d := referenceKernel()
			wk.thought += time.Since(t)
			wk.lastKernel = time.Now()
			wk.rec.mu.Lock()
			wk.rec.kernelMS = append(wk.rec.kernelMS, ms(d))
			wk.rec.mu.Unlock()
		}
		switch st.kind {
		case stCreate:
			sess = wk.create(ctx)
		case stDrill:
			wk.drill(ctx, sess, st)
		case stCollapse:
			wk.collapse(ctx, sess, st)
		case stTree:
			wk.tree(ctx, sess)
		case stStream:
			wk.stream(ctx, sess, st)
		case stDelete:
			wk.delete(ctx, sess)
			sess = nil
			wk.doneOps, wk.doneAt, wk.doneThink = wk.seq, time.Now(), wk.thought
		}
	}
	if wk.w.keepAlive {
		id := ""
		if sess != nil {
			id = sess.id
		} else if t, err := wk.c.CreateSession(ctx, wk.w.session); err == nil {
			// The deadline fell between two sessions: open one more,
			// untimed, so every client keeps a session for the restart
			// check.
			if _, err := wk.c.Drill(ctx, t.ID, api.DrillRequest{Node: t.Root.ID}); err == nil {
				id = t.ID
			}
		}
		if id != "" {
			wk.rec.mu.Lock()
			wk.rec.kept = append(wk.rec.kept, id)
			wk.rec.mu.Unlock()
		}
		return
	}
	if sess != nil {
		wk.c.DeleteSession(ctx, sess.id) //nolint:errcheck // untimed clean-up
	}
}

// timed runs one SDK call and records it. f returns the classification
// details of drills and streams through the record it is handed.
func (wk *worker) timed(ctx context.Context, route string, f func(ctx context.Context, o *opRecord) error) opRecord {
	wk.seq++
	o := opRecord{client: wk.id, seq: wk.seq, kind: route}
	a0, f0 := wk.ct.attempts.Load(), wk.ct.failed.Load()
	var sp *span
	if wk.tr != nil {
		sp = wk.tr.begin("sdk."+route, nil, opID(wk.id, wk.seq))
		ctx = withSpan(ctx, sp)
	}
	o.start = time.Now()
	o.err = f(ctx, &o)
	o.lat = time.Since(o.start)
	if sp != nil {
		wk.tr.end(sp)
	}
	o.attempts = wk.ct.attempts.Load() - a0
	o.failed = wk.ct.failed.Load() - f0
	if o.err != nil && o.failed == 0 {
		// Every attempt returned 2xx but the operation still failed (a
		// stream without done, an undecodable body): count it.
		o.failed = 1
	}
	wk.rec.addOp(o)
	return o
}

func opID(client, seq int) string { return fmt.Sprintf("c%d-%d", client, seq) }

func (wk *worker) create(ctx context.Context) *sessionState {
	req := wk.w.session
	if wk.w.perSessionSeed {
		req.Seed = wk.seeds()
	}
	var tree *api.Tree
	o := wk.timed(ctx, kCreate, func(ctx context.Context, _ *opRecord) error {
		var err error
		tree, err = wk.c.CreateSession(ctx, req)
		return err
	})
	if o.err != nil {
		return nil
	}
	wk.rec.mu.Lock()
	wk.rec.k = tree.K
	wk.rec.mu.Unlock()
	return &sessionState{id: tree.ID, seed: req.Seed, columns: tree.Columns, root: tree.Root, access: map[string]string{}, exact: wk.exactRoute(req)}
}

// resolve walks a child-index path through the mirror. An index wraps
// around the children shown; a path through a node that shows no children
// ends at that node, which is then the target. With depth > 0 the target
// is the largest of the nodes displayed exactly depth levels below the
// path's end that the session searches exactly (the smallest of them all
// when none is), or the path's end itself when none is displayed there.
func (s *sessionState) resolve(path []int, depth int) *api.Node {
	n := s.root
	for _, idx := range path {
		if len(n.Children) == 0 {
			return n
		}
		n = n.Children[idx%len(n.Children)]
	}
	if depth == 0 {
		return n
	}
	level := []*api.Node{n}
	for i := 0; i < depth; i++ {
		var next []*api.Node
		for _, m := range level {
			next = append(next, m.Children...)
		}
		level = next
	}
	if len(level) == 0 {
		return n
	}
	var best *api.Node
	for _, m := range level {
		if s.exact(m) && (best == nil || m.Count > best.Count) {
			best = m
		}
	}
	if best == nil {
		best = level[0]
		for _, m := range level[1:] {
			if m.Count < best.Count {
				best = m
			}
		}
	}
	return best
}

// exactRoute returns the predicate that tells which nodes a session
// created by req searches exactly: every node in an unsampled session,
// and in a sampled one the nodes whose view the server bounds at most
// SampleThreshold rows — the rarest value the node's rule fixes occurs no
// more often than that (drill's coverage bound).
func (wk *worker) exactRoute(req api.CreateSessionRequest) func(*api.Node) bool {
	if req.SampleMemory <= 0 {
		return func(*api.Node) bool { return true }
	}
	return func(n *api.Node) bool {
		bound := math.MaxInt
		for col, v := range n.Rule {
			if c, ok := wk.freq[col][v]; ok && c < bound {
				bound = c
			}
		}
		return bound <= req.SampleThreshold
	}
}

// valueCounts counts every value of every column of tab.
func valueCounts(tab *table.Table) map[string]map[string]int {
	out := map[string]map[string]int{}
	for c, name := range tab.ColumnNames() {
		counts := map[string]int{}
		d := tab.Dict(c)
		for _, v := range tab.Column(c) {
			counts[d.Decode(v)]++
		}
		out[name] = counts
	}
	return out
}

// freeColumn names the k-th (wrapping) column the node leaves starred, or
// "" when the node instantiates every column.
func (s *sessionState) freeColumn(n *api.Node, k int) string {
	var free []string
	for _, c := range s.columns {
		if _, ok := n.Rule[c]; !ok {
			free = append(free, c)
		}
	}
	if len(free) == 0 {
		return ""
	}
	return free[k%len(free)]
}

func (wk *worker) drill(ctx context.Context, sess *sessionState, st step) {
	n := sess.resolve(st.path, st.depth)
	req := api.DrillRequest{Node: n.ID}
	if st.column >= 0 {
		req.Column = sess.freeColumn(n, st.column)
	}
	var resp *api.DrillResponse
	wk.timed(ctx, "drill", func(ctx context.Context, o *opRecord) error {
		var err error
		resp, err = wk.c.Drill(ctx, sess.id, req)
		if err != nil {
			return err
		}
		o.access, o.search = resp.Access, resp.Search
		switch {
		case n == sess.root:
			o.kind = kRootDrill
		case resp.Search != nil && resp.Search.CacheHits > 0:
			o.kind = kHit
		case resp.Search != nil && resp.Search.SingleflightWaits > 0:
			o.kind = kWait
		default:
			o.kind = kChild
		}
		return nil
	})
	if resp == nil {
		return
	}
	n.Children = resp.Node.Children
	sess.access[n.ID] = resp.Access
	switch resp.Access {
	case "direct", "cache":
		wk.rec.observe(drillAnswer{
			seed: sess.seed, rule: n.Rule, column: req.Column,
			hit: resp.Access == "cache", children: resp.Node.Children,
		})
	default:
		wk.rec.mu.Lock()
		wk.rec.sampled = append(wk.rec.sampled, sampledExpansion{session: sess.id, seed: sess.seed, rule: n.Rule, access: resp.Access})
		wk.rec.mu.Unlock()
	}
}

func (wk *worker) collapse(ctx context.Context, sess *sessionState, st step) {
	n := sess.resolve(st.path, st.depth)
	o := wk.timed(ctx, kCollapse, func(ctx context.Context, _ *opRecord) error {
		_, err := wk.c.Collapse(ctx, sess.id, api.DrillRequest{Node: n.ID})
		return err
	})
	if o.err == nil {
		n.Children = nil
	}
}

func (wk *worker) tree(ctx context.Context, sess *sessionState) {
	wk.timed(ctx, kTree, func(ctx context.Context, _ *opRecord) error {
		_, err := wk.c.Tree(ctx, sess.id)
		return err
	})
}

func (wk *worker) delete(ctx context.Context, sess *sessionState) {
	wk.timed(ctx, kDelete, func(ctx context.Context, _ *opRecord) error {
		return wk.c.DeleteSession(ctx, sess.id)
	})
}

// errStreamAborted marks a stream whose done event reported an error.
var errStreamAborted = errors.New("stream ended with an error code")

func (wk *worker) stream(ctx context.Context, sess *sessionState, st step) {
	n := sess.resolve(st.path, st.depth)
	var rules []*api.Node
	var refines []refineEvent
	var done *api.DoneEvent
	events := 0
	o := wk.timed(ctx, kStream, func(ctx context.Context, o *opRecord) error {
		start := o.start
		byID := map[string]*api.Node{}
		var err error
		done, err = wk.c.DrillStream(ctx, sess.id, client.StreamOptions{
			Node:     n.ID,
			MaxRules: 3,
			OnRule: func(r *api.Node) bool {
				if len(rules) == 0 {
					o.first = time.Since(start)
				}
				events++
				rules = append(rules, r)
				byID[r.ID] = r
				return true
			},
			OnRefine: func(r *api.Node) {
				events++
				if p := byID[r.ID]; p != nil {
					prov := *p
					refines = append(refines, refineEvent{rule: r.Rule, provisional: &prov, exact: r.Count})
					*p = *r
				}
			},
		})
		if err != nil {
			return err
		}
		events++ // the done event
		o.access = done.Access
		if done.ErrorCode != "" {
			return fmt.Errorf("%w: %s: %s", errStreamAborted, done.ErrorCode, done.Error)
		}
		return nil
	})
	wk.rec.mu.Lock()
	defer wk.rec.mu.Unlock()
	wk.rec.sseEvents += events
	wk.rec.refines = append(wk.rec.refines, refines...)
	if o.err != nil || done == nil {
		return
	}
	n.Children = rules
	sess.access[n.ID] = done.Access
	if done.Access != "direct" && done.Access != "cache" {
		wk.rec.sampled = append(wk.rec.sampled, sampledExpansion{session: sess.id, seed: sess.seed, rule: n.Rule, access: done.Access})
	}
}

// freshCopy returns an independent copy of tab with its own (unbuilt)
// inverted index, so every set-up repetition pays the index build.
func freshCopy(tab *table.Table) *table.Table {
	rows := make([]int, tab.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return tab.Select(rows)
}

// tempDir makes a scratch directory under the benchmark's build directory
// inside the checkout.
func tempDir(prefix string) (string, error) {
	root := ".bench_build/tmp"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}
