// Package qsqnet implements Query-Subquery Net evaluation (Nguyen &
// Cao's QSQ-net formulation of QSQR) for arbitrary safe Datalog: a
// goal-directed, memoizing strategy that sits between the paper's
// chain traversal (fast, chain subset only) and whole-program
// bottom-up (general, binding-blind).
//
// The net is compiled once per (program, query adornment): one node
// per adorned intensional predicate, holding the predicate's rules
// with a fixed bound-first evaluation order, the statically known
// bound-argument mask of every body step, and — for intensional body
// steps — the adorned key of the subquery the step generates. Nodes
// are discovered by breadth-first search over (predicate, adornment)
// pairs from the query's own adornment, so only binding patterns the
// evaluation can actually reach are compiled; the set is finite
// (bounded by 2^arity per predicate) and the compiled Net depends only
// on the rules, never on the facts — it is the shareable part of a
// prepared plan.
//
// Evaluation memoizes two families of tables: input tables (one per
// adorned predicate, holding the bound-argument tuples of generated
// subqueries) and answer tables (one per intensional predicate,
// holding derived facts, shared across adornments — every entry is a
// true fact, so sharing only prunes repeated work). Termination is by
// subsumption under a fixed adornment: a subquery or answer equal to a
// memoized one is not reprocessed, and both table families are finite
// over the active domain. New answers propagate semi-naively: each
// round re-evaluates only (rule, input, delta-pinned step)
// combinations where the pinned intensional step ranges over the
// answers added since the previous round, so quiescent parts of the
// net cost nothing.
//
// No join step hashes a name or allocates. Compile resolves every name
// evaluation looks up into a slot: each node's input table, each
// predicate's answer table, each probe mask's index, and each
// extensional relation, which Eval fetches from the store once per
// call. Eval's tables are slices over those slots. Table keys are
// packed tuples: up to two columns key a map[uint64], wider tuples are
// packed into a reused byte buffer and looked up as m[string(buf)], so
// only an insert allocates a key. Memoized rows live in append-only
// arenas, and the frame, head and bound vectors are per-Eval scratch.
package qsqnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"chainlog/internal/ast"
	"chainlog/internal/bottomup"
	"chainlog/internal/ctxpoll"
	"chainlog/internal/edb"
	"chainlog/internal/symtab"
)

// Stats reports the work one evaluation performed, in the same
// abstract units the other strategies use.
type Stats struct {
	// Rounds is the number of semi-naive propagation rounds.
	Rounds int
	// Subqueries is the number of distinct (adorned predicate, bound
	// tuple) subqueries memoized in the input tables.
	Subqueries int
	// Answers is the number of distinct facts derived into the answer
	// tables (across every predicate the goal touched).
	Answers int64
	// Firings is the number of successful rule instantiations.
	Firings int64
}

// Net is the compiled query-subquery net for one program and one root
// adornment. It is immutable after Compile and safe for concurrent
// Eval calls, each of which builds its own tables.
type Net struct {
	pred  string
	adorn string
	// nodes are the adorned predicates in discovery order, the root
	// first; a node's position is its input table's slot.
	nodes []*node
	// preds is the sorted set of intensional predicates reachable from
	// the root, the iteration order of the semi-naive rounds; a
	// predicate's position is its answer table's slot, and arities and
	// ansMasks are indexed the same way.
	preds   []string
	arities []int
	// ansMasks lists, per answer slot, the non-zero bound-argument masks
	// with which rule bodies probe that table; Eval keeps one hash index
	// per mask, and a step's probe field is its mask's position here.
	ansMasks [][]uint32
	// edbPreds lists the extensional predicates rule bodies read; a
	// step's rel field is a position here, which Eval resolves through
	// the store once per call.
	edbPreds []string
	// rootMask marks the root adornment's bound positions.
	rootMask uint32
	// maxVars, maxHead and maxBound size Eval's scratch: the widest
	// frame, head and summed per-step bound vectors of any rule.
	maxVars, maxHead, maxBound int
}

// Pred and Adornment identify the net's root goal.
func (n *Net) Pred() string      { return n.pred }
func (n *Net) Adornment() string { return n.adorn }

// Nodes reports the number of adorned-predicate nodes the net compiled
// (explain output).
func (n *Net) Nodes() int { return len(n.nodes) }

// node is one adorned intensional predicate: the input-table side of
// the net (subqueries with this binding pattern) plus the compiled
// rules that answer them.
type node struct {
	key   string
	pred  string
	adorn string
	rules []*crule
	// ans is the predicate's answer slot; width is the number of bound
	// positions, the width of the node's input tuples.
	ans   int
	width int
}

// argRef is a compiled literal argument: a constant, or a variable
// slot in the rule's substitution frame.
type argRef struct {
	slot int // -1 for a constant
	cnst symtab.Sym
}

// cstep is one body literal in the rule's fixed evaluation order.
type cstep struct {
	lit  ast.Literal
	args []argRef
	// builtin marks a comparison step (evaluated as a filter; all its
	// variables are bound by the time the order reaches it).
	builtin bool
	// intensional marks a step over a derived predicate, answered from
	// answer slot ans through index probe (-1 for mask 0, a row walk);
	// subKey names the adorned node its subqueries feed, whose input
	// slot is sub. An extensional step reads relation slot rel.
	intensional bool
	subKey      string
	sub, ans    int
	probe       int
	rel         int
	// mask has bit i set when argument i is statically bound at this
	// step (a constant, or a variable bound by the head input or an
	// earlier step). boundRefs lists the bound arguments in position
	// order, matching edb.Relation.MatchEach's calling convention; they
	// are evaluated into the rule's bound scratch at offset boff.
	mask      uint32
	boundRefs []argRef
	boff      int
}

// crule is one rule compiled under a head adornment.
type crule struct {
	rule  ast.Rule
	nvars int
	// inBind maps the adornment's bound head positions onto the frame:
	// a slot to assign from the input tuple, or a constant the input
	// must equal.
	inBind []argRef
	// head builds the derived fact from the completed frame.
	head []argRef
	// steps is the body in fixed bound-first order.
	steps []cstep
}

// Compile builds the net for a query over pred with the given b/f
// adornment. The program's facts play no part: the net depends only on
// the rules, so a compiled net survives fact churn.
func Compile(prog *ast.Program, pred string, adornment string) (*Net, error) {
	arities, err := prog.Arities()
	if err != nil {
		return nil, fmt.Errorf("qsqnet: %w", err)
	}
	derived := prog.DerivedSet()
	if !derived[pred] {
		return nil, fmt.Errorf("qsqnet: %s is not an intensional predicate", pred)
	}
	if ar, ok := arities[pred]; ok && ar != len(adornment) {
		return nil, fmt.Errorf("qsqnet: adornment %s does not match %s/%d", adornment, pred, ar)
	}
	n := &Net{pred: pred, adorn: adornment}
	byKey := map[string]*node{}
	predSeen := map[string]bool{}

	queue := []*node{{key: adornedKey(pred, adornment), pred: pred, adorn: adornment}}
	byKey[queue[0].key] = queue[0]
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		n.nodes = append(n.nodes, nd)
		if !predSeen[nd.pred] {
			predSeen[nd.pred] = true
			n.preds = append(n.preds, nd.pred)
		}
		for _, r := range prog.RulesFor(nd.pred) {
			cr, subs, err := compileRule(r, nd.adorn, derived, arities)
			if err != nil {
				return nil, err
			}
			if cr == nil {
				// Dead rule (not range-restricted, or an unsatisfiable
				// built-in): derives nothing under bottom-up semantics,
				// so the net drops it for answer-equivalence with the
				// general strategies.
				continue
			}
			nd.rules = append(nd.rules, cr)
			for _, sub := range subs {
				if byKey[sub.key] == nil {
					byKey[sub.key] = sub
					queue = append(queue, sub)
				}
			}
		}
	}
	sort.Strings(n.preds)
	n.resolve(byKey, arities)
	return n, nil
}

// resolve turns every name evaluation looks up into a slot: each
// node's and step's answer table, each step's subquery input table and
// probe index, and each extensional relation. It also sizes the
// per-Eval scratch.
func (n *Net) resolve(byKey map[string]*node, arities map[string]int) {
	ansSlot := map[string]int{}
	for i, p := range n.preds {
		ansSlot[p] = i
		n.arities = append(n.arities, arities[p])
	}
	n.ansMasks = make([][]uint32, len(n.preds))
	edbSlot := map[string]int{}
	for i, c := range n.adorn {
		if c == 'b' {
			n.rootMask |= 1 << uint(i)
		}
	}
	for _, nd := range n.nodes {
		nd.ans = ansSlot[nd.pred]
		nd.width = strings.Count(nd.adorn, "b")
		for _, cr := range nd.rules {
			n.maxVars = max(n.maxVars, cr.nvars)
			n.maxHead = max(n.maxHead, len(cr.head))
			nb := 0
			for si := range cr.steps {
				s := &cr.steps[si]
				s.boff = nb
				nb += len(s.boundRefs)
				switch {
				case s.builtin:
				case s.intensional:
					s.sub = slices.Index(n.nodes, byKey[s.subKey])
					s.ans = ansSlot[s.lit.Pred]
					s.probe = -1
					if s.mask != 0 {
						masks := n.ansMasks[s.ans]
						if s.probe = slices.Index(masks, s.mask); s.probe < 0 {
							s.probe = len(masks)
							n.ansMasks[s.ans] = append(masks, s.mask)
						}
					}
				default:
					slot, ok := edbSlot[s.lit.Pred]
					if !ok {
						slot = len(n.edbPreds)
						edbSlot[s.lit.Pred] = slot
						n.edbPreds = append(n.edbPreds, s.lit.Pred)
					}
					s.rel = slot
				}
			}
			n.maxBound = max(n.maxBound, nb)
		}
	}
}

func adornedKey(pred, adorn string) string { return pred + "^" + adorn }

// compileRule fixes a rule's evaluation order under a head adornment.
// It returns nil (no error) for rules bottom-up evaluation could never
// fire: a head variable appearing in no body atom (non-range-
// restricted — the input binding must not conjure answers the general
// strategies would not derive), or a built-in whose variables no atom
// binds. subs lists the adorned nodes of the rule's intensional steps.
func compileRule(r ast.Rule, adorn string, derived map[string]bool, arities map[string]int) (*crule, []*node, error) {
	if len(r.Head.Args) != len(adorn) {
		return nil, nil, fmt.Errorf("qsqnet: rule head %s/%d under adornment %s", r.Head.Pred, len(r.Head.Args), adorn)
	}
	slots := map[string]int{}
	slotOf := func(v string) int {
		s, ok := slots[v]
		if !ok {
			s = len(slots)
			slots[v] = s
		}
		return s
	}
	ref := func(t ast.Term) argRef {
		if t.IsVar() {
			return argRef{slot: slotOf(t.Var)}
		}
		return argRef{slot: -1, cnst: t.Const}
	}

	// Range restriction: every head variable must occur in a body atom,
	// or the rule derives nothing bottom-up.
	bodyVars := map[string]bool{}
	for _, l := range r.Body {
		if l.IsBuiltin() {
			continue
		}
		for _, a := range l.Args {
			if a.IsVar() {
				bodyVars[a.Var] = true
			}
		}
	}
	for _, a := range r.Head.Args {
		if a.IsVar() && !bodyVars[a.Var] {
			return nil, nil, nil
		}
	}

	cr := &crule{rule: r}
	bound := map[string]bool{}
	for i, c := range adorn {
		a := r.Head.Args[i]
		switch c {
		case 'b':
			cr.inBind = append(cr.inBind, ref(a))
			if a.IsVar() {
				bound[a.Var] = true
			}
		case 'f':
			// Free head position: nothing to bind.
		default:
			return nil, nil, fmt.Errorf("qsqnet: bad adornment %q", adorn)
		}
	}

	// Greedy bound-first order, mirroring the bottom-up evaluator's
	// runtime heuristic but resolved at compile time: ready built-ins
	// first (cheap filters), then the atom with the most bound
	// arguments, extensional before intensional on ties.
	type cand struct {
		idx int
		lit ast.Literal
	}
	var remaining []cand
	for i, l := range r.Body {
		remaining = append(remaining, cand{i, l})
	}
	var subs []*node
	for len(remaining) > 0 {
		pick := -1
		bestScore := -1
		for ci, c := range remaining {
			if c.lit.IsBuiltin() {
				ready := true
				for _, a := range c.lit.Args {
					if a.IsVar() && !bound[a.Var] {
						ready = false
						break
					}
				}
				if ready {
					pick = ci
					break
				}
				continue
			}
			score := 0
			for _, a := range c.lit.Args {
				if !a.IsVar() || bound[a.Var] {
					score++
				}
			}
			score *= 2
			if !derived[c.lit.Pred] {
				score++ // extensional atoms win ties: cheaper to probe
			}
			if score > bestScore {
				bestScore = score
				pick = ci
			}
		}
		if pick == -1 {
			// Only built-ins remain and none is ready: no atom binds
			// their variables, so the rule can never fire (unsafe).
			return nil, nil, nil
		}
		c := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)

		s := cstep{lit: c.lit, builtin: c.lit.IsBuiltin()}
		for i, a := range c.lit.Args {
			ar := ref(a)
			s.args = append(s.args, ar)
			if !a.IsVar() || bound[a.Var] {
				s.mask |= 1 << uint(i)
				s.boundRefs = append(s.boundRefs, ar)
			}
		}
		if !s.builtin && derived[c.lit.Pred] {
			s.intensional = true
			b := make([]byte, len(c.lit.Args))
			for i := range c.lit.Args {
				if s.mask&(1<<uint(i)) != 0 {
					b[i] = 'b'
				} else {
					b[i] = 'f'
				}
			}
			s.subKey = adornedKey(c.lit.Pred, string(b))
			subs = append(subs, &node{key: s.subKey, pred: c.lit.Pred, adorn: string(b)})
		}
		for _, a := range c.lit.Args {
			if a.IsVar() {
				bound[a.Var] = true
			}
		}
		cr.steps = append(cr.steps, s)
	}
	for _, a := range r.Head.Args {
		cr.head = append(cr.head, ref(a))
	}
	cr.nvars = len(slots)
	return cr, subs, nil
}

// unbound marks an unassigned frame slot. symtab.None is a valid
// constant in no relation, so it doubles as the sentinel exactly as it
// does in the bottom-up evaluator's substitution map.
const unbound = symtab.None

// keyIndex maps fixed-width tuples to int32 values without allocating
// on a probe. Tuples of up to two columns key a map[uint64] directly;
// wider ones are packed into buf and looked up as m[string(buf)], which
// the compiler serves without a copy, so only an insert allocates.
type keyIndex struct {
	narrow map[uint64]int32
	wide   map[string]int32
	buf    []byte
}

func newKeyIndex(width int) keyIndex {
	if width <= 2 {
		return keyIndex{narrow: map[uint64]int32{}}
	}
	return keyIndex{wide: map[string]int32{}}
}

func pack2(key []symtab.Sym) uint64 {
	var v uint64
	for i, s := range key {
		v |= uint64(uint32(s)) << (32 * uint(i))
	}
	return v
}

func (k *keyIndex) get(key []symtab.Sym) (int32, bool) {
	if k.narrow != nil {
		v, ok := k.narrow[pack2(key)]
		return v, ok
	}
	k.buf = k.buf[:0]
	for _, s := range key {
		k.buf = binary.LittleEndian.AppendUint32(k.buf, uint32(s))
	}
	v, ok := k.wide[string(k.buf)]
	return v, ok
}

// intern returns the value stored under key, or stores next there and
// reports added.
func (k *keyIndex) intern(key []symtab.Sym, next int32) (v int32, added bool) {
	if v, ok := k.get(key); ok {
		return v, false
	}
	if k.narrow != nil {
		k.narrow[pack2(key)] = next
	} else {
		k.wide[string(k.buf)] = next // get left key packed in buf
	}
	return next, true
}

// rows is an append-only arena of fixed-width tuples. A row slice taken
// with at stays valid and unchanged after later adds move the arena:
// growth copies into a new array and never writes the old one.
type rows struct {
	width int
	n     int
	flat  []symtab.Sym
}

func (r *rows) add(row []symtab.Sym) {
	r.flat = append(r.flat, row...)
	r.n++
}

func (r *rows) at(i int) []symtab.Sym {
	o := i * r.width
	return r.flat[o : o+r.width : o+r.width]
}

// inputTable memoizes the subqueries of one adorned predicate: tuples
// of bound-argument values, deduplicated, with a processed-prefix mark.
type inputTable struct {
	rows
	seen keyIndex
	mark int
}

func (t *inputTable) add(row []symtab.Sym) bool {
	if _, added := t.seen.intern(row, int32(t.n)); !added {
		return false
	}
	t.rows.add(row)
	return true
}

// answerTable memoizes the derived facts of one intensional predicate,
// in arrival order (the delta windows of the semi-naive rounds), with
// one hash index per statically registered non-zero probe mask.
type answerTable struct {
	rows
	seen keyIndex
	idx  []probeIndex
	key  []symtab.Sym // scratch for a row's masked columns
	mark int          // answers below mark have been propagated
}

// probeIndex buckets row positions, in ascending order, by the values
// of the columns under mask.
type probeIndex struct {
	mask    uint32
	keys    keyIndex
	buckets [][]int32
}

func newAnswerTable(arity int, masks []uint32) answerTable {
	t := answerTable{rows: rows{width: arity}, seen: newKeyIndex(arity), key: make([]symtab.Sym, 0, arity)}
	for _, m := range masks {
		t.idx = append(t.idx, probeIndex{mask: m, keys: newKeyIndex(bits.OnesCount32(m))})
	}
	return t
}

func (t *answerTable) add(row []symtab.Sym) bool {
	i := int32(t.n)
	if _, added := t.seen.intern(row, i); !added {
		return false
	}
	t.rows.add(row)
	for p := range t.idx {
		x := &t.idx[p]
		t.key = t.key[:0]
		for c, s := range row {
			if x.mask&(1<<uint(c)) != 0 {
				t.key = append(t.key, s)
			}
		}
		b, added := x.keys.intern(t.key, int32(len(x.buckets)))
		if added {
			x.buckets = append(x.buckets, nil)
		}
		x.buckets[b] = append(x.buckets[b], i)
	}
	return true
}

// lookup returns the positions of rows whose columns under probe's mask
// equal bound.
func (t *answerTable) lookup(probe int, bound []symtab.Sym) []int32 {
	x := &t.idx[probe]
	if b, ok := x.keys.get(bound); ok {
		return x.buckets[b]
	}
	return nil
}

func matchesMask(row []symtab.Sym, mask uint32, bound []symtab.Sym) bool {
	k := 0
	for i := range row {
		if mask&(1<<uint(i)) != 0 {
			if row[i] != bound[k] {
				return false
			}
			k++
		}
	}
	return true
}

// pollEvery bounds how many join probes run between context polls: the
// same order of magnitude as the chain engine's node-visit poll
// stride, so a deadline cancels a runaway evaluation promptly without
// the poll dominating tight loops.
const pollEvery = 4096

// window is one answer table's semi-naive delta: rows [lo, hi).
type window struct{ lo, hi int }

// evalState is one Eval call's mutable state over an immutable Net.
// Tables and relations are slices indexed by the Net's resolved slots.
type evalState struct {
	net    *Net
	st     *symtab.Table
	ctx    context.Context
	rels   []*edb.Relation
	in     []inputTable
	ans    []answerTable
	deltas []window
	stats  Stats
	ops    int
	err    error

	// The rule under evaluation and its scratch. step never re-enters
	// evalRule, so one frame and head serve the whole Eval; each step
	// owns its slice of bound (at cstep.boff), because the frozen-binary
	// MatchEach keeps reading its bound vector while the callback
	// recurses into later steps.
	nd                *node
	cr                *crule
	pin, pinLo, pinHi int
	frame, head       []symtab.Sym
	bound             []symtab.Sym
}

// Eval answers the net's goal for one bound-argument vector (one value
// per 'b' in the root adornment, in position order), against the live
// extensional store. It returns every full tuple of the root predicate
// consistent with the bound arguments. The context is polled
// throughout; on cancellation the error wraps context.Cause.
func (n *Net) Eval(ctx context.Context, store *edb.Store, bound []symtab.Sym) ([][]symtab.Sym, Stats, error) {
	if nb := n.nodes[0].width; len(bound) != nb {
		return nil, Stats{}, fmt.Errorf("qsqnet: goal %s^%s expects %d bound arguments, got %d", n.pred, n.adorn, nb, len(bound))
	}
	e := &evalState{
		net:    n,
		st:     store.SymTab(),
		ctx:    ctx,
		rels:   make([]*edb.Relation, len(n.edbPreds)),
		in:     make([]inputTable, len(n.nodes)),
		ans:    make([]answerTable, len(n.preds)),
		deltas: make([]window, len(n.preds)),
		frame:  make([]symtab.Sym, n.maxVars),
		head:   make([]symtab.Sym, n.maxHead),
		bound:  make([]symtab.Sym, n.maxBound),
	}
	for i, p := range n.edbPreds {
		e.rels[i] = store.Relation(p)
	}
	for i, nd := range n.nodes {
		e.in[i] = inputTable{rows: rows{width: nd.width}, seen: newKeyIndex(nd.width)}
	}
	for i := range n.preds {
		e.ans[i] = newAnswerTable(n.arities[i], n.ansMasks[i])
	}
	e.addInput(0, bound)

	if err := e.run(); err != nil {
		return nil, e.stats, err
	}

	// Project the root predicate's answers onto the goal: the shared
	// answer table can hold tuples derived for recursive subqueries
	// with other bindings, so filter by the goal's own bound values.
	tbl := &e.ans[n.nodes[0].ans]
	var out [][]symtab.Sym
	for i := 0; i < tbl.n; i++ {
		row := tbl.at(i)
		if n.rootMask == 0 || matchesMask(row, n.rootMask, bound) {
			out = append(out, row)
		}
	}
	return out, e.stats, nil
}

// addInput memoizes a subquery tuple in input slot in, returning
// whether it was new.
func (e *evalState) addInput(in int, row []symtab.Sym) bool {
	if e.in[in].add(row) {
		e.stats.Subqueries++
		return true
	}
	return false
}

// poll decrements the probe budget and checks the context; it reports
// false once the evaluation must stop (e.err is then set).
func (e *evalState) poll() bool {
	if e.err != nil {
		return false
	}
	e.ops++
	if e.ops%pollEvery != 0 {
		return true
	}
	if err := ctxpoll.Err(e.ctx); err != nil {
		e.err = fmt.Errorf("qsqnet: evaluation canceled: %w", err)
		return false
	}
	return true
}

// run drives the evaluation to fixpoint: process new subqueries, then
// propagate answer deltas through pinned re-evaluation, until a round
// adds nothing.
func (e *evalState) run() error {
	e.processInputs()
	for e.err == nil {
		e.stats.Rounds++
		if err := ctxpoll.Err(e.ctx); err != nil {
			return fmt.Errorf("qsqnet: evaluation canceled: %w", err)
		}
		// Snapshot this round's delta windows.
		pending := false
		for p := range e.ans {
			t := &e.ans[p]
			e.deltas[p] = window{t.mark, t.n}
			if t.mark < t.n {
				pending = true
			}
		}
		if !pending {
			return e.err
		}
		// Pinned passes: every (rule, processed input, intensional step
		// with a non-empty delta) combination re-evaluates with the
		// pinned step ranging over the delta only. Delta tuples are
		// already in the tables, so any derivation touching at least
		// one new answer is found with the other steps on full tables.
		for ni, nd := range e.net.nodes {
			it := &e.in[ni]
			for _, cr := range nd.rules {
				for si := range cr.steps {
					s := &cr.steps[si]
					if !s.intensional {
						continue
					}
					w := e.deltas[s.ans]
					if w.lo == w.hi {
						continue
					}
					for ri := 0; ri < it.mark; ri++ {
						if e.err != nil {
							return e.err
						}
						e.evalRule(nd, cr, it.at(ri), si, w.lo, w.hi)
					}
				}
			}
		}
		// Advance the marks past the propagated windows; answers added
		// during this round form the next delta.
		for p := range e.ans {
			e.ans[p].mark = e.deltas[p].hi
		}
		// Subqueries generated by the pinned passes get their full
		// evaluation before the next delta snapshot.
		e.processInputs()
	}
	return e.err
}

// processInputs drains every input table's unprocessed suffix, fully
// evaluating each node's rules for each new subquery tuple. New
// subqueries generated along the way extend the same tables and are
// drained in the same call.
func (e *evalState) processInputs() {
	for changed := true; changed && e.err == nil; {
		changed = false
		for ni, nd := range e.net.nodes {
			it := &e.in[ni]
			for it.mark < it.n {
				if e.err != nil {
					return
				}
				changed = true
				row := it.at(it.mark)
				it.mark++
				for _, cr := range nd.rules {
					e.evalRule(nd, cr, row, -1, 0, 0)
				}
			}
		}
	}
}

// evalRule enumerates the substitutions satisfying one compiled rule
// for one input tuple, emitting instantiated heads into the answer
// table. pin >= 0 restricts that intensional step to the answer rows
// in [pinLo, pinHi) — the semi-naive delta window.
func (e *evalState) evalRule(nd *node, cr *crule, input []symtab.Sym, pin, pinLo, pinHi int) {
	frame := e.frame[:cr.nvars]
	for i := range frame {
		frame[i] = unbound
	}
	// Bind the head's bound positions from the input tuple; a repeated
	// variable or head constant constrains the input.
	for i, b := range cr.inBind {
		v := input[i]
		if b.slot < 0 {
			if b.cnst != v {
				return
			}
			continue
		}
		if frame[b.slot] != unbound && frame[b.slot] != v {
			return
		}
		frame[b.slot] = v
	}
	e.nd, e.cr, e.pin, e.pinLo, e.pinHi = nd, cr, pin, pinLo, pinHi
	e.step(0)
}

// val resolves an argument reference against the frame.
func (e *evalState) val(r argRef) symtab.Sym {
	if r.slot < 0 {
		return r.cnst
	}
	return e.frame[r.slot]
}

// step evaluates body position si onward under the frame.
func (e *evalState) step(si int) {
	if e.err != nil {
		return
	}
	cr := e.cr
	if si == len(cr.steps) {
		head := e.head[:len(cr.head)]
		for i, r := range cr.head {
			head[i] = e.val(r)
		}
		e.stats.Firings++
		if e.ans[e.nd.ans].add(head) {
			e.stats.Answers++
		}
		return
	}
	s := &cr.steps[si]
	if !e.poll() {
		return
	}

	if s.builtin {
		if bottomup.Compare(e.st, s.lit.Op, e.val(s.args[0]), e.val(s.args[1])) {
			e.step(si + 1)
		}
		return
	}

	bound := e.bound[s.boff : s.boff+len(s.boundRefs)]
	for i, r := range s.boundRefs {
		bound[i] = e.val(r)
	}
	if !s.intensional {
		rel := e.rels[s.rel]
		if rel == nil {
			return
		}
		rel.MatchEach(s.mask, bound, func(tuple []symtab.Sym) {
			if e.poll() {
				e.unify(s, si, tuple)
			}
		})
		return
	}

	// Intensional step: memoize the subquery (its answers are computed
	// by the node it feeds), then join against the answer table — the
	// delta window when this step is the pinned one, the rows present
	// now otherwise; through the index buckets unless the mask is 0.
	e.addInput(s.sub, bound)
	tbl := &e.ans[s.ans]
	lo, hi := 0, tbl.n
	if si == e.pin {
		lo, hi = e.pinLo, e.pinHi
	}
	if s.probe < 0 {
		for i := lo; i < hi; i++ {
			if !e.poll() {
				return
			}
			e.unify(s, si, tbl.at(i))
		}
		return
	}
	// Buckets hold row positions in ascending order, so the window is a
	// contiguous bucket slice.
	idxs := tbl.lookup(s.probe, bound)
	k, _ := slices.BinarySearch(idxs, int32(lo))
	for _, i := range idxs[k:] {
		if int(i) >= hi {
			break
		}
		if !e.poll() {
			return
		}
		e.unify(s, si, tbl.at(int(i)))
	}
}

// unify binds step si's free arguments from a candidate tuple and, on
// success, evaluates the rest of the body. assigned records which
// argument positions it bound, so they are undone before returning and
// the frame can be reused across candidates.
func (e *evalState) unify(s *cstep, si int, tuple []symtab.Sym) {
	var assigned uint32
	ok := true
	for i, r := range s.args {
		v := tuple[i]
		switch {
		case r.slot < 0:
			ok = r.cnst == v
		case e.frame[r.slot] == unbound:
			e.frame[r.slot] = v
			assigned |= 1 << uint(i)
		default:
			ok = e.frame[r.slot] == v
		}
		if !ok {
			break
		}
	}
	if ok {
		e.step(si + 1)
	}
	for i, r := range s.args {
		if assigned&(1<<uint(i)) != 0 {
			e.frame[r.slot] = unbound
		}
	}
}
