package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"chainlog/internal/naiveeval"
	"chainlog/internal/parser"
	"chainlog/internal/server"
	"chainlog/internal/symtab"
)

// rules is the one rule set every workload loads: the workloads differ
// only in their facts and traffic, never in the program or the server
// configuration.
const rules = `tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1, is_deptime(DT1), cnx(D1, DT1, D, AT).
tcn(X, Y) :- r(X, Y).
tcn(X, Z) :- tcn(X, Y), tcn(Y, Z).
`

// Query templates the workloads send. The harness prepares each on the
// primary too, to replay runs in the traced mode and to hold views.
const (
	tmplTC    = "tc(?, Y)"
	tmplTCInv = "tc(X, ?)"
	tmplSG    = "sg(?, Y)"
	tmplCNX   = "cnx(?, ?, D, AT)"
	tmplTCN   = "tcn(?, Y)"
)

var workloadNames = []string{"point-read", "traverse-heavy", "write-watch"}

// Phase modes.
const (
	openLoop   = iota // requests sent on a fixed schedule, timed from when due
	closedLoop        // each connection sends its next request when the last completes
)

// Phase roles: which end-to-end metrics a phase feeds.
const (
	roleReads  = 1 << iota // read_p50_ms / read_p99_ms
	roleQPS                // read_qps
	roleWrites             // write_* and watch_lag_*
)

// request is one generated HTTP request with the answer it must get.
type request struct {
	Path     string // "/v1/query" or "/v1/delta"
	Body     []byte
	Template string   // reads: the template the request runs (a literal is its template plus Args)
	Args     []string // reads: the template's bindings
	Literal  bool     // read sent as a one-shot "query" body
	Class    string   // traffic class, for the record
	Want     answerCheck
	// Deltas: the ops and the net change they must report.
	Ops                    []server.DeltaOp
	WantAsserted, WantRetr int
	tracedBody             []byte // Body with "stats": true, built on demand
}

// phase is one stretch of traffic with one loop discipline.
type phase struct {
	Name     string
	Mode     int
	Role     int
	Conns    int
	Rate     float64      // open loop: requests per second
	Seconds  float64      // closed loop: how long the phase runs
	Schedule []*request   // open loop: one request per tick
	Pools    [][]*request // closed loop: per-connection request cycle
}

// dataset is everything a run sends, generated from the seed alone.
type dataset struct {
	Workload string
	Seed     int64
	Rules    string // loaded by every node
	Facts    string // loaded by the primary after Rules; the replica bootstraps them
	Views    []string
	WatchArg string
	First    *request
	Phases   []*phase
	// Final answer of tc(root, Y) for each mutable-chain root in Views
	// and WatchArg, after every scheduled delta.
	FinalViews map[string][]string
	Sizes      map[string]int
}

// answerCheck verifies a served answer against one the harness worked
// out without the server: closed forms from the generator, or the
// naiveeval oracle.
type answerCheck interface {
	check(rows [][]string) error
}

// exactRows is an answer given row by row (columns joined by \x1f),
// sorted; the served rows may come in any order.
type exactRows []string

func newExactRows(rows [][]string) exactRows {
	out := make(exactRows, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	slices.Sort(out)
	return out
}

func singleColumn(names []string) exactRows {
	out := slices.Clone(names)
	slices.Sort(out)
	return out
}

func (w exactRows) check(rows [][]string) error {
	if len(rows) != len(w) {
		return fmt.Errorf("got %d rows, want %d", len(rows), len(w))
	}
	got := make([]string, len(rows))
	for i, r := range rows {
		got[i] = strings.Join(r, "\x1f")
	}
	slices.Sort(got)
	for i := range got {
		if got[i] != w[i] {
			return fmt.Errorf("row %q not in the expected answer", got[i])
		}
	}
	return nil
}

// grid is an h×w directed grid (edges right and down) with seeded node
// names. tc from (i, j) reaches exactly the nodes (i', j') ≠ (i, j) with
// i' ≥ i and j' ≥ j.
type grid struct {
	h, w  int
	names []string
	index map[string]int32
}

type gridCheck struct {
	g    *grid
	i, j int
}

func (c gridCheck) check(rows [][]string) error {
	g := c.g
	want := (g.h-c.i)*(g.w-c.j) - 1
	if len(rows) != want {
		return fmt.Errorf("grid tc from (%d,%d): got %d rows, want %d", c.i, c.j, len(rows), want)
	}
	seen := make([]uint64, (len(g.names)+63)/64)
	for _, r := range rows {
		id, ok := g.index[r[0]]
		if !ok || len(r) != 1 {
			return fmt.Errorf("grid tc from (%d,%d): unexpected row %q", c.i, c.j, r)
		}
		i, j := int(id)/g.w, int(id)%g.w
		if i < c.i || j < c.j || (i == c.i && j == c.j) || seen[id/64]&(1<<(id%64)) != 0 {
			return fmt.Errorf("grid tc from (%d,%d): wrong or repeated row %q", c.i, c.j, r[0])
		}
		seen[id/64] |= 1 << (id % 64)
	}
	return nil
}

// factWriter collects facts and emits them in a seeded order.
type factWriter struct {
	facts []string
	count map[string]int
}

func (f *factWriter) add(pred string, args ...string) {
	f.facts = append(f.facts, pred+"("+strings.Join(args, ", ")+").")
	if f.count == nil {
		f.count = map[string]int{}
	}
	f.count[pred]++
}

func (f *factWriter) text(rng *rand.Rand) string {
	rng.Shuffle(len(f.facts), func(i, j int) { f.facts[i], f.facts[j] = f.facts[j], f.facts[i] })
	var b strings.Builder
	for _, s := range f.facts {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

// forest is many disjoint short chains over e: tc from position p
// answers the rest of its chain, tc into position p the part before it.
type forest struct {
	chains [][]string
	nodes  [][2]int // (chain, position) in a seeded popularity order
	zipf   *rand.Zipf
}

func newForest(rng *rand.Rand, nodes int, fw *factWriter) *forest {
	var lens []int
	total := 0
	for total < nodes {
		n := 3 + rng.Intn(20) // 3..22 nodes: answers of 1..21 rows
		lens = append(lens, n)
		total += n
	}
	perm := rng.Perm(total)
	f := &forest{}
	id := 0
	for c, n := range lens {
		chain := make([]string, n)
		for p := range chain {
			chain[p] = "n" + strconv.Itoa(perm[id])
			id++
			f.nodes = append(f.nodes, [2]int{c, p})
		}
		for p := 1; p < n; p++ {
			fw.add("e", chain[p-1], chain[p])
		}
		f.chains = append(f.chains, chain)
	}
	rng.Shuffle(len(f.nodes), func(i, j int) { f.nodes[i], f.nodes[j] = f.nodes[j], f.nodes[i] })
	// v = 20 flattens the head: no single key takes more than ~1% of
	// the reads, while the top 100 still take about a third.
	f.zipf = rand.NewZipf(rng, 1.1, 20, uint64(len(f.nodes)-1))
	return f
}

// read draws a skewed point read: 60% tc(?, Y), 20% tc(X, ?), 20% a
// one-shot literal tc(c, Y).
func (f *forest) read(rng *rand.Rand) *request {
	ref := f.nodes[f.zipf.Uint64()]
	chain, p := f.chains[ref[0]], ref[1]
	kind := rng.Intn(10)
	inverse := kind == 2 || kind == 3
	if inverse && p == 0 || !inverse && p == len(chain)-1 {
		inverse = !inverse
	}
	if inverse {
		return readReq(tmplTCInv, []string{chain[p]}, false, "point", singleColumn(chain[:p]))
	}
	return readReq(tmplTC, []string{chain[p]}, kind < 2, "point", singleColumn(chain[p+1:]))
}

// Mutable chains: the write traffic. Every delta extends or shrinks the
// tail of chain 0 (the watched view), and often of a view chain (1..3)
// and an unwatched chain, so each delta moves the watched answer and the
// epoch by exactly one.
const (
	mutChains  = 16
	mutViews   = 4
	mutInitLen = 10
	mutMinLen  = 6
	mutMaxLen  = 14
)

type mutable struct {
	nodes [][]string
	next  []int
}

func newMutable(fw *factWriter) *mutable {
	m := &mutable{nodes: make([][]string, mutChains), next: make([]int, mutChains)}
	for c := range m.nodes {
		for p := 0; p < mutInitLen; p++ {
			m.nodes[c] = append(m.nodes[c], m.fresh(c))
			if p > 0 {
				fw.add("e", m.nodes[c][p-1], m.nodes[c][p])
			}
		}
	}
	return m
}

func (m *mutable) fresh(c int) string {
	m.next[c]++
	return "m" + strconv.Itoa(c) + "x" + strconv.Itoa(m.next[c]-1)
}

func (m *mutable) root(c int) string { return m.nodes[c][0] }

func (m *mutable) step(rng *rand.Rand, c int) server.DeltaOp {
	chain := m.nodes[c]
	n := len(chain)
	if n <= mutMinLen || n < mutMaxLen && rng.Intn(2) == 0 {
		next := m.fresh(c)
		m.nodes[c] = append(chain, next)
		return server.DeltaOp{Op: "assert", Pred: "e", Args: []string{chain[n-1], next}}
	}
	m.nodes[c] = chain[:n-1]
	return server.DeltaOp{Op: "retract", Pred: "e", Args: []string{chain[n-2], chain[n-1]}}
}

func (m *mutable) delta(rng *rand.Rand) *request {
	chains := []int{0}
	if rng.Intn(2) == 0 {
		chains = append(chains, 1+rng.Intn(mutViews-1))
	}
	if rng.Intn(2) == 0 {
		chains = append(chains, mutViews+rng.Intn(mutChains-mutViews))
	}
	req := &request{Path: "/v1/delta", Class: "delta"}
	for _, c := range chains {
		op := m.step(rng, c)
		if op.Op == "assert" {
			req.WantAsserted++
		} else {
			req.WantRetr++
		}
		req.Ops = append(req.Ops, op)
	}
	req.Body = mustJSON(server.DeltaRequest{Ops: req.Ops})
	return req
}

// read draws tc(?, Y) from a random node of a random mutable chain,
// answered from the chains' state at this point of the schedule.
func (m *mutable) read(rng *rand.Rand) *request {
	chain := m.nodes[rng.Intn(mutChains)]
	p := rng.Intn(len(chain) - 1)
	return readReq(tmplTC, []string{chain[p]}, false, "mutable", singleColumn(chain[p+1:]))
}

func (m *mutable) finalViews(roots []string) map[string][]string {
	out := map[string][]string{}
	for c := range m.nodes {
		if slices.Contains(roots, m.root(c)) {
			out[m.root(c)] = singleColumn(m.nodes[c][1:])
		}
	}
	return out
}

func readReq(tmpl string, args []string, literal bool, class string, want answerCheck) *request {
	r := &request{Path: "/v1/query", Template: tmpl, Args: args, Literal: literal, Class: class, Want: want}
	r.Body = mustJSON(r.wire(false))
	return r
}

// wire is the request's JSON body; traced requests ask for stats.
func (r *request) wire(stats bool) server.QueryRequest {
	if r.Literal {
		return server.QueryRequest{Query: literalOf(r.Template, r.Args), Stats: stats}
	}
	return server.QueryRequest{Template: r.Template, Args: r.Args, Stats: stats}
}

func (r *request) traced() []byte {
	if r.Ops != nil {
		return r.Body
	}
	if r.tracedBody == nil {
		r.tracedBody = mustJSON(r.wire(true))
	}
	return r.tracedBody
}

// literalOf substitutes bindings for the template's '?' holes.
func literalOf(tmpl string, args []string) string {
	var b strings.Builder
	for _, a := range args {
		i := strings.IndexByte(tmpl, '?')
		b.WriteString(tmpl[:i])
		b.WriteString(a)
		tmpl = tmpl[i+1:]
	}
	b.WriteString(tmpl)
	return b.String()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings are marshalled
	}
	return b
}

// traverse holds the evaluation-heavy structures of traverse-heavy.
type traverse struct {
	g       *grid
	ladders [][2][]string // per ladder: a-chain and b-chain names, 1-based
	cnx     [][]string    // bound (source, deptime) pairs
	cnxWant map[string]exactRows
	tcn     [][]string
}

// gridTargets are the answer sizes grid reads aim at.
var gridTargets = []int{100, 300, 1000, 3000, 10000}

func newTraverse(rng *rand.Rand, fw *factWriter) (*traverse, error) {
	t := &traverse{}
	// Grid: 200×260 nodes, 103,540 edges, larger than L2 once loaded.
	g := &grid{h: 200, w: 260}
	n := g.h * g.w
	perm := rng.Perm(n)
	g.names = make([]string, n)
	g.index = make(map[string]int32, n)
	for id := range g.names {
		g.names[id] = "g" + strconv.Itoa(perm[id])
		g.index[g.names[id]] = int32(id)
	}
	for i := 0; i < g.h; i++ {
		for j := 0; j < g.w; j++ {
			id := i*g.w + j
			if j+1 < g.w {
				fw.add("e", g.names[id], g.names[id+1])
			}
			if i+1 < g.h {
				fw.add("e", g.names[id], g.names[id+g.w])
			}
		}
	}
	t.g = g
	// Figure 7 sample-B ladders: up a_i→a_{i+1}, flat a_i→b_i, down
	// b_i→b_{i+1}; sg(a_k, Y) = {b_{k+2j}}.
	sizes := []int{96, 128, 160, 192, 224, 256}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	for l, size := range sizes {
		var ab [2][]string
		for side, tag := range []string{"a", "b"} {
			ab[side] = make([]string, size+1)
			for i := 1; i <= size; i++ {
				ab[side][i] = "l" + strconv.Itoa(l) + tag + strconv.Itoa(i)
			}
		}
		for i := 1; i <= size; i++ {
			fw.add("flat", ab[0][i], ab[1][i])
			if i < size {
				fw.add("up", ab[0][i], ab[0][i+1])
				fw.add("down", ab[1][i], ab[1][i+1])
			}
		}
		t.ladders = append(t.ladders, ab)
	}
	// Section 4 flight schedule, answered by the naiveeval oracle.
	if err := t.flights(rng, fw, 30, 5); err != nil {
		return nil, err
	}
	// Nonlinear tc over four 220-edge chains in r.
	for c := 0; c < 4; c++ {
		chain := make([]string, 221)
		for p := range chain {
			chain[p] = "q" + strconv.Itoa(c) + "n" + strconv.Itoa(p)
			if p > 0 {
				fw.add("r", chain[p-1], chain[p])
			}
		}
		t.tcn = append(t.tcn, chain)
	}
	return t, nil
}

func (t *traverse) flights(rng *rand.Rand, fw *factWriter, airports, perAirport int) error {
	var src strings.Builder
	src.WriteString(rules)
	add := func(pred string, args ...string) {
		fw.add(pred, args...)
		src.WriteString(pred + "(" + strings.Join(args, ", ") + ").\n")
	}
	// The schedule's shape comes from a fixed seed, so every run seed
	// costs the same to evaluate; the run seed renames the airports and
	// shifts every time by one offset, which keeps the connections.
	shape := rand.New(rand.NewSource(1))
	names := rng.Perm(airports)
	offset := rng.Intn(100)
	deptimes := map[int]bool{}
	seen := map[string]bool{}
	for a := 0; a < airports; a++ {
		for f := 0; f < perAirport; f++ {
			dt := shape.Intn(1300) + 100 + offset
			dur := shape.Intn(200) + 30
			dest := shape.Intn(airports)
			if dest == a {
				dest = (a + 1) % airports
			}
			from, at := "ap"+strconv.Itoa(names[a]), strconv.Itoa(dt)
			add("flight", from, at, "ap"+strconv.Itoa(names[dest]), strconv.Itoa(dt+dur))
			deptimes[dt] = true
			if key := from + "/" + at; !seen[key] {
				seen[key] = true
				t.cnx = append(t.cnx, []string{from, at})
			}
		}
	}
	times := make([]int, 0, len(deptimes))
	for dt := range deptimes {
		times = append(times, dt)
	}
	slices.Sort(times)
	for _, dt := range times {
		add("is_deptime", strconv.Itoa(dt))
	}
	// The oracle: one naive fixpoint of the whole program, grouped by
	// the bound (source, deptime) pair.
	st := symtab.NewTable()
	res, err := parser.Parse(src.String(), st)
	if err != nil {
		return fmt.Errorf("flight oracle: %w", err)
	}
	base := naiveeval.NewFacts()
	for _, f := range res.Facts {
		base.Assert(f.Pred, f.Args)
	}
	q, err := parser.ParseQuery("cnx(S, DT, D, AT)", st)
	if err != nil {
		return err
	}
	grouped := map[string][][]string{}
	for _, row := range naiveeval.Answer(res.Program, base, st, q) {
		key := st.Name(row[0]) + "/" + st.Name(row[1])
		grouped[key] = append(grouped[key], []string{st.Name(row[2]), st.Name(row[3])})
	}
	t.cnxWant = map[string]exactRows{}
	for _, b := range t.cnx {
		t.cnxWant[b[0]+"/"+b[1]] = newExactRows(grouped[b[0]+"/"+b[1]])
	}
	return nil
}

// traverseClasses is one block of the traverse-heavy mix; every block
// holds each class in these proportions, in a seeded order.
var traverseClasses = []string{"grid", "grid", "grid", "grid", "grid", "grid", "grid", "grid",
	"sg", "sg", "sg", "cnx", "cnx", "cnx", "tcn", "tcn"}

func (t *traverse) block(rng *rand.Rand, gridTurn *int) []*request {
	classes := slices.Clone(traverseClasses)
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	out := make([]*request, len(classes))
	for k, class := range classes {
		switch class {
		case "grid":
			out[k] = t.gridRead(rng, gridTargets[*gridTurn%len(gridTargets)])
			*gridTurn++
		case "sg":
			ab := t.ladders[rng.Intn(len(t.ladders))]
			n := len(ab[0]) - 1
			k0 := 1 + rng.Intn(n/4)
			var want []string
			for i := k0; i <= n; i += 2 {
				want = append(want, ab[1][i])
			}
			out[k] = readReq(tmplSG, []string{ab[0][k0]}, false, "sg", singleColumn(want))
		case "cnx":
			b := t.cnx[rng.Intn(len(t.cnx))]
			out[k] = readReq(tmplCNX, slices.Clone(b), false, "cnx", t.cnxWant[b[0]+"/"+b[1]])
		case "tcn":
			chain := t.tcn[rng.Intn(len(t.tcn))]
			p := 150 + rng.Intn(41)
			out[k] = readReq(tmplTCN, []string{chain[p]}, false, "tcn", singleColumn(chain[p+1:]))
		}
	}
	return out
}

// gridRead picks a source whose reach is a near-square a×b block with
// a·b−1 ≈ target rows.
func (t *traverse) gridRead(rng *rand.Rand, target int) *request {
	g := t.g
	side := math.Sqrt(float64(target + 1))
	lo, hi := max(1, int(side/2)), min(g.h, int(side*2))
	a := lo + rng.Intn(hi-lo+1)
	b := min(g.w, max(1, int(math.Round(float64(target+1)/float64(a)))))
	i, j := g.h-a, g.w-b
	return readReq(tmplTC, []string{g.names[i*g.w+j]}, false, "grid", gridCheck{g: g, i: i, j: j})
}

// generate builds a workload's dataset and request sequence from the
// seed: the same (workload, seed, seconds) gives the same bytes.
func generate(workload string, seed int64, seconds float64, nproc int) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	fw := &factWriter{}
	ds := &dataset{Workload: workload, Seed: seed, Rules: rules, Sizes: map[string]int{}}
	S := seconds
	switch workload {
	case "point-read":
		f := newForest(rng, 40000, fw)
		m := newMutable(fw)
		ds.WatchArg = m.root(0)
		ds.First = f.read(rng)
		open := &phase{Name: "open-reads", Mode: openLoop, Role: roleReads, Conns: 4, Rate: 500}
		open.Schedule = schedule(open.Rate, 0.4*S, func() *request { return f.read(rng) })
		closed := &phase{Name: "closed-reads", Mode: closedLoop, Role: roleQPS, Conns: nproc, Seconds: 0.3 * S}
		closed.Pools = pools(nproc, 4096, func() *request { return f.read(rng) })
		writes := writeTail(rng, m, 0.3*S)
		ds.Phases = []*phase{open, closed, writes}
		ds.FinalViews = m.finalViews([]string{ds.WatchArg})
		ds.Sizes["forest_nodes"] = len(f.nodes)
	case "traverse-heavy":
		t, err := newTraverse(rng, fw)
		if err != nil {
			return nil, err
		}
		m := newMutable(fw)
		ds.WatchArg = m.root(0)
		turn := 0
		ds.First = t.gridRead(rng, gridTargets[0])
		reads := &phase{Name: "closed-traversals", Mode: closedLoop, Role: roleReads | roleQPS, Conns: 1, Seconds: 0.7 * S}
		var pool []*request
		for len(pool) < 2048 {
			pool = append(pool, t.block(rng, &turn)...)
		}
		reads.Pools = [][]*request{pool}
		writes := writeTail(rng, m, 0.3*S)
		ds.Phases = []*phase{reads, writes}
		ds.FinalViews = m.finalViews([]string{ds.WatchArg})
		ds.Sizes["grid_nodes"] = len(t.g.names)
		ds.Sizes["ladders"] = len(t.ladders)
		ds.Sizes["cnx_bindings"] = len(t.cnx)
	case "write-watch":
		f := newForest(rng, 20000, fw)
		m := newMutable(fw)
		for c := 0; c < mutViews; c++ {
			ds.Views = append(ds.Views, m.root(c))
		}
		ds.WatchArg = m.root(0)
		ds.First = f.read(rng)
		mix := &phase{Name: "write-mix", Mode: openLoop, Role: roleReads | roleWrites, Conns: 1, Rate: 100}
		mix.Schedule = schedule(mix.Rate, 0.7*S, func() *request {
			switch x := rng.Intn(20); {
			case x < 9:
				return m.delta(rng)
			case x < 15:
				return f.read(rng)
			default:
				return m.read(rng)
			}
		})
		closed := &phase{Name: "closed-reads", Mode: closedLoop, Role: roleQPS, Conns: nproc, Seconds: 0.3 * S}
		closed.Pools = pools(nproc, 4096, func() *request {
			if rng.Intn(4) == 0 {
				return m.read(rng)
			}
			return f.read(rng)
		})
		ds.Phases = []*phase{mix, closed}
		ds.FinalViews = m.finalViews(ds.Views)
		ds.Sizes["forest_nodes"] = len(f.nodes)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	ds.Facts = fw.text(rng)
	ds.Sizes["facts"] = len(fw.facts)
	ds.Sizes["edges_e"] = fw.count["e"]
	ds.Sizes["mutable_chains"] = mutChains
	ds.Sizes["library_views"] = len(ds.Views)
	ds.Sizes["facts_bytes"] = len(ds.Facts)
	return ds, nil
}

// writeTail is the write phase that ends the read workloads: the same
// delta traffic as write-watch, on one connection, without reads.
func writeTail(rng *rand.Rand, m *mutable, seconds float64) *phase {
	p := &phase{Name: "write-tail", Mode: openLoop, Role: roleWrites, Conns: 1, Rate: 100}
	p.Schedule = schedule(p.Rate, seconds, func() *request { return m.delta(rng) })
	return p
}

func schedule(rate, seconds float64, next func() *request) []*request {
	out := make([]*request, max(1, int(rate*seconds)))
	for i := range out {
		out[i] = next()
	}
	return out
}

func pools(conns, size int, next func() *request) [][]*request {
	out := make([][]*request, conns)
	for c := range out {
		out[c] = make([]*request, size)
		for i := range out[c] {
			out[c][i] = next()
		}
	}
	return out
}
