package qsqnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/edb"
	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

// harness parses a program, loads its facts, and exposes oracle-checked
// evaluation of a concrete query.
type harness struct {
	t     *testing.T
	st    *symtab.Table
	prog  *ast.Program
	store *edb.Store
}

func newHarness(t *testing.T, src string) *harness {
	t.Helper()
	st := symtab.NewTable()
	res, err := parser.Parse(src, st)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	store := edb.NewStore(st)
	for _, f := range res.Facts {
		store.Insert(f.Pred, f.Args...)
	}
	return &harness{t: t, st: st, prog: res.Program, store: store}
}

func (h *harness) assert(pred string, names ...string) {
	syms := make([]symtab.Sym, len(names))
	for i, n := range names {
		syms[i] = h.st.Intern(n)
	}
	h.store.Insert(pred, syms...)
}

// eval runs the net for a concrete query text and returns the answer
// rows projected exactly as bottomup.Answer projects them.
func (h *harness) eval(query string) ([][]symtab.Sym, Stats, error) {
	h.t.Helper()
	q, err := parser.ParseQuery(query, h.st)
	if err != nil {
		h.t.Fatalf("parse query %q: %v", query, err)
	}
	net, err := Compile(h.prog, q.Pred, q.Adornment())
	if err != nil {
		return nil, Stats{}, err
	}
	var bound []symtab.Sym
	for _, a := range q.Args {
		if !a.IsVar() {
			bound = append(bound, a.Const)
		}
	}
	tuples, stats, err := net.Eval(context.Background(), h.store, bound)
	if err != nil {
		return nil, stats, err
	}
	// Project onto the query like the oracle does: load the tuples into
	// a store and reuse bottomup.Answer's filter/collapse/dedupe/sort.
	idb := edb.NewStore(h.st)
	for _, tp := range tuples {
		idb.Insert(q.Pred, tp...)
	}
	return bottomup.Answer(idb, q), stats, nil
}

// oracle computes the reference answer with the seminaive fixpoint.
func (h *harness) oracle(query string) [][]symtab.Sym {
	h.t.Helper()
	q, err := parser.ParseQuery(query, h.st)
	if err != nil {
		h.t.Fatalf("parse query %q: %v", query, err)
	}
	idb, _, err := bottomup.Seminaive(h.prog, h.store)
	if err != nil {
		h.t.Fatalf("seminaive: %v", err)
	}
	return bottomup.Answer(idb, q)
}

func (h *harness) check(query string) Stats {
	h.t.Helper()
	got, stats, err := h.eval(query)
	if err != nil {
		h.t.Fatalf("eval %q: %v", query, err)
	}
	want := h.oracle(query)
	if !reflect.DeepEqual(got, want) {
		h.t.Fatalf("%s:\n got %v\nwant %v", query, got, want)
	}
	return stats
}

func TestLinearTransitiveClosure(t *testing.T) {
	h := newHarness(t, `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
e(a, b). e(b, c). e(c, d). e(x, y).
`)
	for _, q := range []string{"tc(a, Y)", "tc(X, d)", "tc(X, Y)", "tc(a, d)", "tc(a, a)", "tc(X, X)"} {
		h.check(q)
	}
}

// The bound argument must prune: a goal at the tail of a long chain
// must not enumerate subqueries for the unreachable prefix.
func TestBoundArgumentPrunes(t *testing.T) {
	h := newHarness(t, `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
`)
	n := 200
	for i := 0; i < n; i++ {
		h.assert("e", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	stats := h.check(fmt.Sprintf("tc(n%d, Y)", n-10))
	if stats.Subqueries > 20 {
		t.Fatalf("bound goal near the tail memoized %d subqueries; bindings did not prune", stats.Subqueries)
	}
}

// Nonlinear recursion (two intensional body literals) is exactly what
// the chain route and magic sets cannot compile; qsqnet must handle it.
func TestNonlinearTransitiveClosure(t *testing.T) {
	h := newHarness(t, `
tcn(X, Y) :- e(X, Y).
tcn(X, Z) :- tcn(X, Y), tcn(Y, Z).
e(a, b). e(b, c). e(c, d). e(d, a).
`)
	for _, q := range []string{"tcn(a, Y)", "tcn(X, c)", "tcn(X, Y)", "tcn(a, a)"} {
		h.check(q)
	}
}

func TestMutualRecursion(t *testing.T) {
	h := newHarness(t, `
p(X, Z) :- a(X, Y), q(Y, Z).
q(X, Y) :- b(X, Y).
q(X, Z) :- b(X, Y), p(Y, Z).
a(c0, c1). a(c2, c3). b(c1, c2). b(c3, c0). b(c3, c4).
`)
	for _, q := range []string{"p(c0, Y)", "q(c1, Y)", "p(X, Y)", "q(X, c0)", "p(c0, c4)"} {
		h.check(q)
	}
}

func TestSameGenerationWithBuiltins(t *testing.T) {
	h := newHarness(t, `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
cross(X, Y) :- sg(X, Y), X != Y.
flat(c1, c2). flat(c2, c2). up(a, c1). up(b, c2). down(c2, e). down(c2, f).
`)
	for _, q := range []string{"sg(a, Y)", "sg(X, Y)", "cross(a, Y)", "cross(X, X)", "sg(a, e)"} {
		h.check(q)
	}
}

// Termination on cyclic data with a repeated-variable rule: the
// subsumption check (memoized subqueries and answers) must close the
// loop, and the repeated variable must filter, not bind twice.
func TestCyclicRepeatedVariables(t *testing.T) {
	h := newHarness(t, `
loop(X, X) :- e(X, Y), tc(Y, X).
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
e(a, b). e(b, c). e(c, a). e(c, d).
`)
	for _, q := range []string{"loop(a, Y)", "loop(X, X)", "loop(a, b)", "tc(a, Y)"} {
		h.check(q)
	}
}

// Non-range-restricted rules (the identity rule r(X,X).) derive
// nothing under bottom-up semantics; the net must not let the goal's
// own binding conjure answers the general strategies would not return.
func TestRangeRestrictionMatchesBottomUp(t *testing.T) {
	h := newHarness(t, `
r(X, X).
r(X, Y) :- e(X, Y).
e(a, b).
`)
	for _, q := range []string{"r(a, Y)", "r(X, Y)", "r(c, c)", "r(X, X)"} {
		h.check(q)
	}
}

// A goal with no answers must terminate cleanly at every adornment —
// including one whose subquery tree is entirely empty.
func TestZeroAnswerGoals(t *testing.T) {
	h := newHarness(t, `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
e(a, b).
`)
	for _, q := range []string{"tc(zzz, Y)", "tc(X, zzz)", "tc(b, a)"} {
		got, stats, err := h.eval(q)
		if err != nil {
			t.Fatalf("eval %q: %v", q, err)
		}
		if len(got) != 0 {
			t.Fatalf("%s: got %v, want empty", q, got)
		}
		if stats.Rounds == 0 {
			t.Fatalf("%s: evaluation reported zero rounds", q)
		}
		h.check(q)
	}
}

// An empty program (predicate with no rules reachable) and missing
// base relations must evaluate to nothing, not error.
func TestMissingBaseRelation(t *testing.T) {
	h := newHarness(t, `
p(X, Y) :- nosuchbase(X, Y).
`)
	got, _, err := h.eval("p(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	h := newHarness(t, `
p(X, Y) :- e(X, Y).
e(a, b).
`)
	if _, err := Compile(h.prog, "e", "bf"); err == nil {
		t.Error("compiling an extensional goal must error")
	}
	if _, err := Compile(h.prog, "p", "bff"); err == nil {
		t.Error("adornment/arity mismatch must error")
	}
	net, err := Compile(h.prog, "p", "bf")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.Eval(context.Background(), h.store, nil); err == nil {
		t.Error("wrong bound-argument count must error")
	}
	if net.Pred() != "p" || net.Adornment() != "bf" || net.Nodes() == 0 {
		t.Errorf("net metadata: %s^%s nodes=%d", net.Pred(), net.Adornment(), net.Nodes())
	}
}

// Mid-evaluation deadline cancellation: a dense cyclic graph whose
// closure is expensive, a context that expires immediately, and the
// returned error must wrap the context's cause.
func TestDeadlineCancellation(t *testing.T) {
	h := newHarness(t, `
tcn(X, Y) :- e(X, Y).
tcn(X, Z) :- tcn(X, Y), tcn(Y, Z).
`)
	rng := rand.New(rand.NewSource(7))
	n := 300
	for i := 0; i < 4*n; i++ {
		h.assert("e", fmt.Sprintf("n%d", rng.Intn(n)), fmt.Sprintf("n%d", rng.Intn(n)))
	}
	net, err := Compile(h.prog, "tcn", "ff")
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("request deadline blown")
	ctx, cancel := context.WithDeadlineCause(context.Background(), time.Now().Add(-time.Millisecond), cause)
	defer cancel()
	_, _, err = net.Eval(ctx, h.store, nil)
	if err == nil {
		t.Fatal("expired context did not cancel evaluation")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error %v does not wrap the cancellation cause", err)
	}
}

// randomProgram is one program of the randomized differential check:
// its base predicates with their arities, the constant domain facts
// draw from, and the goals checked against the oracle.
type randomProgram struct {
	src     string
	bases   []string
	arities []int
	// dom formats a domain value from an index in [0, size).
	dom     string
	size    int
	queries []string
}

// randomPrograms covers the binary shapes (linear, nonlinear, mutual
// recursion) plus n-ary ones: the Section 4 connection rule with a
// builtin '<', a body constant, and 3- to 5-column heads. The n-ary
// goals key wide input and answer tables and probe with up to three
// bound columns.
var randomPrograms = []randomProgram{
	{
		src: `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
`,
		bases: []string{"e"}, arities: []int{2}, dom: "c%d", size: 6,
		queries: []string{"tc(c0, Y)", "tc(X, c1)", "tc(X, Y)", "tc(c2, c3)", "tc(X, X)"},
	},
	{
		src: `
tcn(X, Y) :- e(X, Y).
tcn(X, Z) :- tcn(X, Y), tcn(Y, Z).
`,
		bases: []string{"e"}, arities: []int{2}, dom: "c%d", size: 6,
		queries: []string{"tcn(c0, Y)", "tcn(X, c1)", "tcn(X, Y)", "tcn(c2, c3)"},
	},
	{
		src: `
p(X, Z) :- e(X, Y), q(Y, Z).
q(X, Y) :- f(X, Y).
q(X, Z) :- f(X, Y), p(Y, Z).
`,
		bases: []string{"e", "f"}, arities: []int{2, 2}, dom: "c%d", size: 6,
		queries: []string{"p(c0, Y)", "q(X, c1)", "p(X, Y)", "q(c2, Y)"},
	},
	{
		src: `
cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1, dep(DT1), cnx(D1, DT1, D, AT).
`,
		bases: []string{"flight", "flight", "flight", "dep"}, arities: []int{4, 4, 4, 1}, dom: "%d", size: 5,
		queries: []string{"cnx(0, 1, D, AT)", "cnx(S, DT, D, AT)", "cnx(0, DT, 3, AT)",
			"cnx(1, 0, 2, AT)", "cnx(S, DT, D, 4)", "cnx(S, DT, S, AT)"},
	},
	{
		src: `
path(X, Y, C) :- link(X, Y, C).
path(X, Z, C) :- link(X, Y, C), path(Y, Z, C).
route(A, B, C, D, E) :- path(A, B, C), path(B, D, C), hop(D, E, c1), A < E.
`,
		bases: []string{"link", "link", "hop"}, arities: []int{3, 3, 3}, dom: "c%d", size: 3,
		queries: []string{"route(c0, B, C, D, E)", "route(A, B, c2, D, E)", "route(c0, B, C, D, c2)",
			"route(A, B, C, D, E)", "path(c0, Z, C)", "route(A, A, C, D, E)"},
	},
	{
		src: `
reach(X, Y, L) :- arc(X, Y, L).
reach(X, Z, L) :- reach(X, Y, L), reach(Y, Z, L), X != Z.
`,
		bases: []string{"arc"}, arities: []int{3}, dom: "c%d", size: 4,
		queries: []string{"reach(c0, Y, L)", "reach(X, c1, c2)", "reach(c1, Y, c0)", "reach(X, Y, L)"},
	},
}

// randomHarness loads 12-23 random facts over the program's bases.
func randomHarness(t *testing.T, rp randomProgram, seed int64) *harness {
	rng := rand.New(rand.NewSource(seed))
	h := newHarness(t, rp.src)
	for k := 0; k < 12+rng.Intn(12); k++ {
		b := rng.Intn(len(rp.bases))
		args := make([]string, rp.arities[b])
		for i := range args {
			args[i] = fmt.Sprintf(rp.dom, rng.Intn(rp.size))
		}
		h.assert(rp.bases[b], args...)
	}
	return h
}

// Randomized differential check inside the package: random small
// databases across the adornment space against the seminaive oracle.
func TestRandomizedAgainstSeminaive(t *testing.T) {
	for _, rp := range randomPrograms {
		for seed := int64(0); seed < 8; seed++ {
			h := randomHarness(t, rp, seed)
			for _, q := range rp.queries {
				h.check(q)
			}
		}
	}
}

// One compiled Net evaluated from 8 goroutines at once, each with its
// own bound vectors, must answer exactly as sequential evaluation does:
// the Net is immutable after Compile and every Eval owns its tables.
func TestConcurrentEvalMatchesSequential(t *testing.T) {
	h := newHarness(t, `
tcn(X, Y) :- e(X, Y).
tcn(X, Z) :- tcn(X, Y), tcn(Y, Z).
`)
	rng := rand.New(rand.NewSource(3))
	n := 30
	for i := 0; i < 2*n; i++ {
		h.assert("e", fmt.Sprintf("n%d", rng.Intn(n)), fmt.Sprintf("n%d", rng.Intn(n)))
	}
	net, err := Compile(h.prog, "tcn", "bf")
	if err != nil {
		t.Fatal(err)
	}
	goals := make([]symtab.Sym, n)
	want := make([][][]symtab.Sym, n)
	for i := range want {
		goals[i] = h.st.Intern(fmt.Sprintf("n%d", i))
		rows, _, err := net.Eval(context.Background(), h.store, goals[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rows
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (g*7 + k) % n
				rows, _, err := net.Eval(context.Background(), h.store, goals[i:i+1])
				if err == nil && !reflect.DeepEqual(rows, want[i]) {
					err = fmt.Errorf("goroutine %d, goal tcn(n%d, Y): got %v, want %v", g, i, rows, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
