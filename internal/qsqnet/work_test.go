package qsqnet

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainlog/internal/parser"
	"chainlog/internal/symtab"
)

var updateWork = flag.Bool("update", false, "rewrite testdata/work.golden from the current evaluator")

// workPrograms are the fixed programs of this package's tests, each
// with the goals whose evaluation work the golden file pins.
var workPrograms = []struct {
	name    string
	src     string
	queries []string
}{
	{"linear", `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
e(a, b). e(b, c). e(c, d). e(x, y).
`, []string{"tc(a, Y)", "tc(X, d)", "tc(X, Y)", "tc(a, d)", "tc(a, a)", "tc(X, X)", "tc(zzz, Y)", "tc(X, zzz)", "tc(b, a)"}},
	{"nonlinear", `
tcn(X, Y) :- e(X, Y).
tcn(X, Z) :- tcn(X, Y), tcn(Y, Z).
e(a, b). e(b, c). e(c, d). e(d, a).
`, []string{"tcn(a, Y)", "tcn(X, c)", "tcn(X, Y)", "tcn(a, a)"}},
	{"mutual", `
p(X, Z) :- a(X, Y), q(Y, Z).
q(X, Y) :- b(X, Y).
q(X, Z) :- b(X, Y), p(Y, Z).
a(c0, c1). a(c2, c3). b(c1, c2). b(c3, c0). b(c3, c4).
`, []string{"p(c0, Y)", "q(c1, Y)", "p(X, Y)", "q(X, c0)", "p(c0, c4)"}},
	{"sg", `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
cross(X, Y) :- sg(X, Y), X != Y.
flat(c1, c2). flat(c2, c2). up(a, c1). up(b, c2). down(c2, e). down(c2, f).
`, []string{"sg(a, Y)", "sg(X, Y)", "cross(a, Y)", "cross(X, X)", "sg(a, e)"}},
	{"cyclic", `
loop(X, X) :- e(X, Y), tc(Y, X).
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
e(a, b). e(b, c). e(c, a). e(c, d).
`, []string{"loop(a, Y)", "loop(X, X)", "loop(a, b)", "tc(a, Y)"}},
	{"range", `
r(X, X).
r(X, Y) :- e(X, Y).
e(a, b).
`, []string{"r(a, Y)", "r(X, Y)", "r(c, c)", "r(X, X)"}},
	{"missing", `
p(X, Y) :- nosuchbase(X, Y).
`, []string{"p(a, Y)"}},
}

// work evaluates one goal and formats its Stats together with the
// store's lookup and retrieval counter deltas.
func (h *harness) work(query string) string {
	h.t.Helper()
	q, err := parser.ParseQuery(query, h.st)
	if err != nil {
		h.t.Fatalf("parse query %q: %v", query, err)
	}
	net, err := Compile(h.prog, q.Pred, q.Adornment())
	if err != nil {
		h.t.Fatalf("compile %q: %v", query, err)
	}
	var bound []symtab.Sym
	for _, a := range q.Args {
		if !a.IsVar() {
			bound = append(bound, a.Const)
		}
	}
	before := h.store.CountersSnapshot()
	_, s, err := net.Eval(context.Background(), h.store, bound)
	if err != nil {
		h.t.Fatalf("eval %q: %v", query, err)
	}
	after := h.store.CountersSnapshot()
	return fmt.Sprintf("rounds=%d subqueries=%d answers=%d firings=%d lookups=%d retrieved=%d",
		s.Rounds, s.Subqueries, s.Answers, s.Firings, after.Lookups-before.Lookups, after.Retrieved-before.Retrieved)
}

// corpusCase loads testdata/planchoice/qsq-bound-nonchain.json, the
// bound nonlinear closure the root package's qsqnet gate and benchmark
// run, into a harness, and returns the goal's query text.
func corpusCase(t *testing.T) (*harness, string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "planchoice", "qsq-bound-nonchain.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Program string   `json:"program"`
		Query   string   `json:"query"`
		Args    []string `json:"args"`
		Facts   []struct {
			Pred string `json:"pred"`
			Kind string `json:"kind"`
			N    int    `json:"n"`
		} `json:"facts"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, c.Program)
	for _, f := range c.Facts {
		if f.Kind != "chain" {
			t.Fatalf("corpus fact kind %q not supported here", f.Kind)
		}
		for i := 0; i < f.N; i++ {
			h.assert(f.Pred, fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		}
	}
	query := c.Query
	for _, a := range c.Args {
		query = strings.Replace(query, "?", a, 1)
	}
	return h, query
}

// The golden work counts: Stats and the store's probe counters for
// every goal of this package's fixed and randomized programs, plus the
// corpus case. Evaluation speed may change; the work it does may not —
// the optimizer's feedback loop reads these same numbers. Regenerate
// with -update only for a deliberate change to the evaluation order.
func TestWorkGolden(t *testing.T) {
	var b strings.Builder
	for _, wp := range workPrograms {
		h := newHarness(t, wp.src)
		for _, q := range wp.queries {
			fmt.Fprintf(&b, "%s %s: %s\n", wp.name, q, h.work(q))
		}
	}
	for pi, rp := range randomPrograms {
		for seed := int64(0); seed < 8; seed++ {
			h := randomHarness(t, rp, seed)
			for _, q := range rp.queries {
				fmt.Fprintf(&b, "random%d/%d %s: %s\n", pi, seed, q, h.work(q))
			}
		}
	}
	h, q := corpusCase(t)
	fmt.Fprintf(&b, "corpus %s: %s\n", q, h.work(q))

	path := filepath.Join("testdata", "work.golden")
	if *updateWork {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("golden has %d lines, evaluation produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("work changed:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}

// A warm Eval of the corpus case allocates per table and per index
// bucket, never per join step.
func TestEvalAllocCeiling(t *testing.T) {
	h, query := corpusCase(t)
	q, err := parser.ParseQuery(query, h.st)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Compile(h.prog, q.Pred, q.Adornment())
	if err != nil {
		t.Fatal(err)
	}
	bound := []symtab.Sym{q.Args[0].Const}
	eval := func() {
		if _, _, err := net.Eval(context.Background(), h.store, bound); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	// String-keyed tables with per-step scratch made 550,744 allocations
	// here; the ceiling is 1% of that.
	if got := testing.AllocsPerRun(10, eval); got > 5500 {
		t.Fatalf("warm Eval of %s made %.0f allocations, ceiling 5500", query, got)
	}
}
