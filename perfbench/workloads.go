package main

import (
	"math/rand"
	"time"

	"smartdrill/api"
	"smartdrill/internal/benchcfg"
	"smartdrill/internal/table"
)

// datasetName is the name every workload registers its table under.
const datasetName = "census"

// workload is one traffic mix against one served configuration; why each
// exists is recorded in BENCHMARK.json. Every workload is a closed loop:
// each client waits for a reply before it sends its next request.
type workload struct {
	name string
	// table generates the workload's dataset. Generation is part of
	// workload construction and is never timed.
	table func() *table.Table
	// clients is the number of concurrent closed-loop clients.
	clients int
	// think is each client's pause before every operation: an analyst
	// reads the last answer before the next click. ops_per_s leaves it
	// out. Two clients that never pause saturate both CPUs of a small
	// host, and their latencies flip between scheduler regimes for
	// seconds at a time.
	think time.Duration
	// durable saves every session mutation through a SessionBackend
	// (memBackend while timed, a DirBackend for the restart check);
	// otherwise sessions live in memory only.
	durable bool
	// warmChildren is server.Config.WarmChildren.
	warmChildren int
	// session is the create request every scripted session sends; Seed is
	// filled per session when perSessionSeed is set.
	session        api.CreateSessionRequest
	perSessionSeed bool
	// maxSessions bounds the sessions generated per client; a client that
	// runs out before the deadline fails the run.
	maxSessions int
	// setupReps is how many times setup is repeated per run; setup_s is
	// the median.
	setupReps int
	// keepAlive keeps each client's session in progress at the deadline
	// alive for the restart check instead of deleting it.
	keepAlive bool
	// script appends one scripted session to a client's script.
	script func(g *scriptGen) []step
}

// stepKind is one SDK operation of a script.
type stepKind uint8

const (
	stCreate stepKind = iota + 1
	stDrill
	stCollapse
	stTree
	stStream
	stDelete
)

// step is one scripted operation. Nodes are addressed by child-index
// paths from the root, resolved against the client's mirror of the
// session tree when the step runs (the server mints node IDs, so a
// script cannot name them ahead of time).
type step struct {
	kind stepKind
	path []int
	// depth > 0 targets the largest node displayed depth levels below
	// the path's end that the session searches exactly (see resolve).
	depth int
	// column, when >= 0, makes a drill a star drill on the column-th free
	// column of the target node.
	column int
	// toggle marks a collapse or re-expansion that runs only when the
	// target's latest expansion was exact, so that re-expanding it is a
	// cache hit; on a sampled node it is skipped.
	toggle bool
}

func opCreate() step                   { return step{kind: stCreate, column: -1} }
func opDrill(path ...int) step         { return step{kind: stDrill, path: path, column: -1} }
func opCollapse(path ...int) step      { return step{kind: stCollapse, path: path, column: -1} }
func opTree() step                     { return step{kind: stTree, column: -1} }
func opStream(path ...int) step        { return step{kind: stStream, path: path, column: -1} }
func opDelete() step                   { return step{kind: stDelete, column: -1} }
func opStar(col int, path ...int) step { return step{kind: stDrill, path: path, column: col} }

// below retargets s to the largest exactly searched node displayed
// levels below its path.
func below(levels int, s step) step { s.depth = levels; return s }

// scriptGen is one client's script generator. Decks deal from a shuffled
// multiset and reshuffle when empty, so over a run every client draws
// each card about equally often whatever the seed: the seed changes the
// order and the combinations, not the mix.
type scriptGen struct {
	rng   *rand.Rand
	decks map[string]*deck
	// common is dealt identically for every client of a run (each client
	// holds its own copy with the same seed), so clients can follow the
	// same schedule.
	common *scriptGen
}

type deck struct {
	cards []int
	next  int
}

// newScriptGen builds client's generator for a run with the given seed.
func newScriptGen(seed int64, client int) *scriptGen {
	gen := func(s int64) *scriptGen {
		return &scriptGen{rng: rand.New(rand.NewSource(s)), decks: map[string]*deck{}}
	}
	g := gen(seed*7919 + int64(client))
	g.common = gen(seed)
	return g
}

// deal draws the next card of the named deck, built from cards on first
// use.
func (g *scriptGen) deal(name string, cards ...int) int {
	d, ok := g.decks[name]
	if !ok {
		d = &deck{cards: append([]int(nil), cards...), next: len(cards)}
		g.decks[name] = d
	}
	if d.next == len(d.cards) {
		g.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	c := d.cards[d.next]
	d.next++
	return c
}

// onceIn reports true exactly once in every n calls for the named
// schedule, at a seeded position.
func (g *scriptGen) onceIn(name string, n int) bool {
	cards := make([]int, n)
	cards[0] = 1
	return g.deal(name, cards...) == 1
}

// perm3 returns the three root-child indices in a seeded order.
func (g *scriptGen) perm3() []int { return g.rng.Perm(3) }

// censusSession is the create request of the in-memory and durable
// workloads: server defaults throughout (default K, estimated mw).
var censusSession = api.CreateSessionRequest{Dataset: datasetName}

// sampledSession enables dynamic sampling on the Census table with a
// sample memory of 5% of the table and a routing threshold of 20% of it,
// so views bounded below the threshold (some grandchildren) are searched
// exactly (and cached) while everything above them is sampled.
var sampledSession = api.CreateSessionRequest{
	Dataset:         datasetName,
	SampleMemory:    5000,
	MinSampleSize:   500,
	SampleThreshold: 20000,
}

var workloads = []*workload{
	{
		name:           "census-explore",
		table:          benchcfg.Census,
		clients:        1,
		session:        censusSession,
		perSessionSeed: true,
		maxSessions:    100,
		setupReps:      15,
		script:         exploreSession,
	},
	{
		name:         "census-shared-durable",
		table:        benchcfg.Census,
		clients:      2,
		durable:      true,
		warmChildren: 2,
		think:        time.Millisecond,
		session:      censusSession,
		maxSessions:  20000,
		setupReps:    3,
		keepAlive:    true,
		script:       sharedSession,
	},
	{
		name:           "census-sampled-stream",
		table:          benchcfg.Census,
		clients:        1,
		session:        sampledSession,
		perSessionSeed: true,
		maxSessions:    100,
		setupReps:      15,
		script:         sampledStreamSession,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// peeks prepends short sessions to a full one: an analyst opens a
// session, reads the root from the create response and leaves. They are
// cheap, and they give the create latency enough samples on workloads
// whose full sessions are seconds long.
func peeks(n int, full []step) []step {
	var s []step
	for i := 0; i < n; i++ {
		s = append(s, opCreate(), opDelete())
	}
	return append(s, full...)
}

// toggles collapses and re-expands expanded nodes: cache hits within the
// session.
func toggles(n int, pick func() step) []step {
	var s []step
	for i := 0; i < n; i++ {
		c := pick()
		c.toggle = true
		d := c
		d.kind = stDrill
		s = append(s, c, d)
	}
	return s
}

// exploreSession: an analyst opens a session with its own seed, expands
// the root, every root child and every grandchild, plus one star drill
// (all cold: the seed is part of the answer-cache key), toggles expanded
// nodes (collapse, then re-drill: cache hits within the session), streams
// each root child again and leaves. Only the order of the expansions and
// the star drill vary between sessions, so every run expands the same
// mix of nodes.
func exploreSession(g *scriptGen) []step {
	s := []step{opCreate(), opDrill(), opTree()}
	pick := func() step { return opCollapse(g.rng.Intn(3)) }
	for _, a := range g.perm3() {
		s = append(s, opDrill(a), opTree())
		for _, b := range g.perm3() {
			s = append(s, opDrill(a, b), opTree())
		}
		s = append(s, toggles(120, pick)...)
	}
	sc := g.deal("star", 0, 1, 2, 3, 4, 5)
	s = append(s, opStar(sc%2, sc/2), opTree())
	s = append(s, toggles(120, pick)...)
	for _, a := range g.perm3() {
		s = append(s, opStream(a))
	}
	return peeks(12, append(s, opDelete()))
}

// sharedSession: a default-config session expands the root and a
// top-biased root child (the warmers computed both unless it is the third
// child), fetches the tree, toggles the child and leaves. Every fortieth
// session first walks deeper: a grandchild and a great-grandchild dealt
// from a deck of all of them, and a star drill on the child. Every node is
// the same for every session, so only first visits miss the answer cache;
// the deck makes every run visit the same cold set, spread over the run.
// Both clients walk deeper on the same schedule and deck, as a team
// exploring one report would: the second to reach a cold node waits on
// the first one's search (singleflight) or hits its answer. Every
// hundredth session streams the largest child of the top root
// child.
func sharedSession(g *scriptGen) []step {
	a := []int{0, 0, 0, 1, 1, 2}[g.rng.Intn(6)]
	s := []step{opCreate(), opDrill(), opDrill(a), opTree()}
	if g.common.onceIn("deep", 40) {
		var cards []int
		for i := 0; i < 27; i++ {
			cards = append(cards, i)
		}
		d := g.common.deal("great-grandchild", cards...)
		b, c := d/9, d%9
		s = append(s, opDrill(b), opDrill(b, c/3), opDrill(b, c/3, c%3), opTree(), opCollapse(b, c/3))
		s = append(s, opStar(d%4, b), opTree(), opDrill(a))
	}
	s = append(s, toggles(2, func() step { return opCollapse(a) })...)
	s = append(s, opTree())
	if g.onceIn("stream", 100) {
		s = append(s, opCollapse(a), opDrill(0), below(1, opStream(0)), opTree())
	}
	return append(s, opDelete())
}

// sampledStreamSession: a sampled session expands the root, streams every
// root child (provisional rules, then refine events with exact counts),
// then works on the largest grandchild the server searches exactly rather
// than on a sample (so every session runs the same steps): a rule drill
// and two star drills, each followed by toggles (cache hits within the
// session) and a tree fetch.
func sampledStreamSession(g *scriptGen) []step {
	s := []step{opCreate(), opDrill()}
	for _, a := range g.perm3() {
		s = append(s, opStream(a))
	}
	target := func(st step) step { return below(2, st) }
	toggle := func() step { return target(opCollapse()) }
	s = append(s, target(opDrill()), opTree())
	s = append(s, toggles(34, toggle)...)
	for _, col := range g.rng.Perm(2) {
		s = append(s, target(opStar(col)), opTree())
		s = append(s, toggles(33, toggle)...)
	}
	return peeks(3, append(s, opDelete()))
}
