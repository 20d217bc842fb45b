package chainlog

import (
	"context"

	"chainlog/internal/ast"
	"chainlog/internal/qsqnet"
	"chainlog/internal/symtab"
)

// buildQSQNetPlan compiles the goal-directed QSQ-net route: the relevant
// program slice plus the template's adornment compile into a net of
// input/answer tables once, here; each run seeds the root input table
// with its parameter vector and evaluates against the live store. The
// caller must hold db.mu (shared suffices).
func (db *DB) buildQSQNetPlan(tmpl ast.Query) (plan, error) {
	net, err := qsqnet.Compile(db.relevantProgram(tmpl.Pred), tmpl.Pred, tmpl.Adornment())
	if err != nil {
		return nil, err
	}
	pl := &qsqnetPlan{tmpl: tmpl, net: net}
	first := map[string]int{}
	for i, a := range tmpl.Args {
		if a.IsVar() {
			if j, dup := first[a.Var]; dup {
				pl.same = append(pl.same, [2]int{i, j})
			} else {
				first[a.Var] = i
				pl.keep = append(pl.keep, i)
			}
			continue
		}
		if a.IsHole() {
			pl.holePos = append(pl.holePos, len(pl.boundTmpl))
			pl.boundTmpl = append(pl.boundTmpl, symtab.None)
		} else {
			pl.boundTmpl = append(pl.boundTmpl, a.Const)
		}
	}
	return pl, nil
}

// qsqnetPlan evaluates through a compiled QSQ net. The net structure
// depends only on the rules and the binding pattern; facts are read from
// the live store per run, so fact churn needs no plan work at all.
type qsqnetPlan struct {
	tmpl ast.Query
	net  *qsqnet.Net
	// boundTmpl holds the bound-position values in query-literal order,
	// symtab.None at '?' holes; holePos maps successive run parameters to
	// their positions in boundTmpl.
	boundTmpl []symtab.Sym
	holePos   []int
	// keep lists each free variable's first position, the projected
	// columns; same pairs every later occurrence with the first.
	keep []int
	same [][2]int
}

// refreshFacts is a no-op: every run evaluates against the live store.
func (pl *qsqnetPlan) refreshFacts(db *DB) {}

func (pl *qsqnetPlan) run(ctx context.Context, db *DB, args []symtab.Sym) (*Answer, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	bound := make([]symtab.Sym, len(pl.boundTmpl))
	copy(bound, pl.boundTmpl)
	for k, i := range pl.holePos {
		bound[i] = args[k]
	}
	tuples, qs, err := pl.net.Eval(ctx, db.store, bound)
	if err != nil {
		return nil, err
	}
	rows := pl.project(tuples)
	return db.rowsAnswer(rows, Stats{
		Iterations: qs.Rounds,
		Nodes:      int(qs.Answers),
		Firings:    qs.Firings,
		Converged:  true,
	}), nil
}

// project maps the net's full answer tuples onto the query's free
// variables with bottomup.Answer's semantics: rows violating a repeated
// variable's equality are dropped and each free variable projects at
// its first occurrence. Bound positions were already filtered by Eval.
// Projection cannot create duplicates: the net's tuples are distinct,
// and every dropped column is either bound (equal across all tuples) or
// a repeated variable (equal to a kept column), so distinct tuples keep
// distinct projections.
func (pl *qsqnetPlan) project(tuples [][]symtab.Sym) [][]symtab.Sym {
	flat := make([]symtab.Sym, 0, len(tuples)*len(pl.keep))
	out := make([][]symtab.Sym, 0, len(tuples))
next:
	for _, tuple := range tuples {
		for _, p := range pl.same {
			if tuple[p[0]] != tuple[p[1]] {
				continue next
			}
		}
		start := len(flat)
		for _, i := range pl.keep {
			flat = append(flat, tuple[i])
		}
		out = append(out, flat[start:len(flat):len(flat)])
	}
	return out
}
