// Package solver decides satisfiability of conjunctions of symbolic
// constraints and produces witness models (concrete input assignments).
//
// It is the reproduction's stand-in for the STP/Kleaver solver the paper
// uses through KLEE [19]. Portend needs three queries:
//
//   - path feasibility when forking at a symbolic branch,
//   - model generation ("solve the conjunction of branch constraints ...
//     to find concrete inputs that drive the program down the
//     corresponding path", §3.3),
//   - symbolic output comparison (is there an input under which the
//     primary's symbolic outputs equal the alternate's concrete outputs,
//     §3.3.1).
//
// All three reduce to Solve. The solver is deliberately small: constant
// folding, top-level conjunction splitting, interval propagation for
// variable-vs-constant comparisons, then a deterministic backtracking
// search over heuristically chosen candidate values. PIL workloads
// constrain small integers and flags, so this bounded search decides the
// same queries an SMT solver would, and it reports Unknown rather than
// guessing when its budget is exhausted.
package solver

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/expr"
)

// Result is the outcome of a satisfiability query.
type Result int

const (
	// Unsat means the constraints are proven unsatisfiable within the
	// candidate domains the solver explored exhaustively.
	Unsat Result = iota
	// Sat means a witness model was found.
	Sat
	// Unknown means the search budget was exhausted without a verdict.
	Unknown
)

// String returns "unsat", "sat" or "unknown".
func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	case Unknown:
		return "unknown"
	}
	return "invalid"
}

// Options tune the search budget.
type Options struct {
	// MaxCandidatesPerVar bounds the candidate value set per variable.
	MaxCandidatesPerVar int
	// MaxNodes bounds the number of search tree nodes visited.
	MaxNodes int
}

// domainRadius widens every variable's default domain to
// [-domainRadius, domainRadius] before interval propagation.
const domainRadius = 1 << 20

// DefaultOptions returns the budget used across the evaluation,
// sufficient to decide every query the workload suite generates.
func DefaultOptions() Options {
	return Options{
		MaxCandidatesPerVar: 48,
		MaxNodes:            200000,
	}
}

// Solver answers satisfiability queries. The zero value is not ready;
// use New.
//
// A Solver is safe for concurrent use: queries keep all search state on
// the stack, and the accumulated statistics are atomic. The parallel
// classification engine shares one solver among the alternate-schedule
// workers of a race.
type Solver struct {
	opts Options

	// Interrupt, when non-nil, is polled during the backtracking search;
	// when it reports true the query aborts with Unknown. Set it before
	// the solver's first query (it is read concurrently afterwards).
	// Cancellation maps to Unknown — never to Unsat — so an aborted
	// query can only make the classifier more conservative, not wrong.
	Interrupt func() bool

	queries atomic.Int64
}

// Queries returns the number of Solve calls answered so far (Table 4
// style instrumentation).
func (s *Solver) Queries() int { return int(s.queries.Load()) }

// New returns a Solver with the given options, falling back to defaults
// for zero fields.
func New(opts Options) *Solver {
	d := DefaultOptions()
	if opts.MaxCandidatesPerVar <= 0 {
		opts.MaxCandidatesPerVar = d.MaxCandidatesPerVar
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = d.MaxNodes
	}
	return &Solver{opts: opts}
}

// interval is an inclusive integer range.
type interval struct {
	lo, hi int64
}

func (iv interval) empty() bool { return iv.lo > iv.hi }

func (iv interval) contains(v int64) bool { return v >= iv.lo && v <= iv.hi }

// width returns hi-lo+1 saturating at MaxInt64.
func (iv interval) width() int64 {
	if iv.empty() {
		return 0
	}
	w := iv.hi - iv.lo
	if w < 0 || w == math.MaxInt64 {
		return math.MaxInt64
	}
	return w + 1
}

// splitConjuncts flattens top-level logical-ands into a flat constraint
// list, folding constants on the way. It returns ok=false when a constraint
// is constant-false.
func splitConjuncts(constraints []expr.Expr) (flat []expr.Expr, ok bool) {
	var walk func(e expr.Expr) bool
	walk = func(e expr.Expr) bool {
		if c, isConst := expr.ConstVal(e); isConst {
			return c != 0
		}
		if b, isBin := e.(*expr.Binary); isBin && b.Op == expr.OpLAnd {
			return walk(b.L) && walk(b.R)
		}
		flat = append(flat, e)
		return true
	}
	for _, c := range constraints {
		if !walk(c) {
			return nil, false
		}
	}
	return flat, true
}

// normalizeLinear attempts to rewrite (x ± c1) cmp c2 and (c1 - x) cmp c2
// into x cmp' c form. Returns the variable name, the comparison op and the
// constant bound; ok=false when the shape does not match.
func normalizeLinear(e expr.Expr) (name string, op expr.Op, bound int64, ok bool) {
	b, isBin := e.(*expr.Binary)
	if !isBin || !b.Op.IsComparison() {
		return "", 0, 0, false
	}
	l, r := b.L, b.R
	op = b.Op
	// Put the constant on the right.
	if _, isC := expr.ConstVal(l); isC {
		l, r = r, l
		op = mirrorCmp(op)
	}
	c, isC := expr.ConstVal(r)
	if !isC {
		return "", 0, 0, false
	}
	switch lv := l.(type) {
	case *expr.Sym:
		return lv.Name, op, c, true
	case *expr.Binary:
		// x + k cmp c  →  x cmp c-k ; x - k cmp c → x cmp c+k ;
		// k - x cmp c  →  x mirror(cmp) k-c
		if lv.Op == expr.OpAdd || lv.Op == expr.OpSub {
			if s, isSym := lv.L.(*expr.Sym); isSym {
				if k, kc := expr.ConstVal(lv.R); kc {
					if lv.Op == expr.OpAdd {
						return s.Name, op, c - k, true
					}
					return s.Name, op, c + k, true
				}
			}
			if s, isSym := lv.R.(*expr.Sym); isSym {
				if k, kc := expr.ConstVal(lv.L); kc {
					if lv.Op == expr.OpAdd {
						return s.Name, op, c - k, true
					}
					// k - x cmp c → -x cmp c-k → x mirror(cmp) k-c
					return s.Name, mirrorCmp(op), k - c, true
				}
			}
		}
	}
	return "", 0, 0, false
}

func mirrorCmp(op expr.Op) expr.Op {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	}
	return op // Eq, Ne are symmetric
}

// propagate narrows per-variable intervals from normalized linear
// constraints. Returns false when some interval becomes empty (Unsat).
func propagate(flat []expr.Expr, domains map[string]*interval) bool {
	for pass := 0; pass < 4; pass++ {
		changed := false
		for _, c := range flat {
			name, op, bound, ok := normalizeLinear(c)
			if !ok {
				continue
			}
			iv := domains[name]
			lo, hi := iv.lo, iv.hi
			switch op {
			case expr.OpEq:
				if bound > lo {
					lo = bound
				}
				if bound < hi {
					hi = bound
				}
			case expr.OpLt:
				if bound-1 < hi {
					hi = bound - 1
				}
			case expr.OpLe:
				if bound < hi {
					hi = bound
				}
			case expr.OpGt:
				if bound+1 > lo {
					lo = bound + 1
				}
			case expr.OpGe:
				if bound > lo {
					lo = bound
				}
			case expr.OpNe:
				if lo == hi && lo == bound {
					return false
				}
				if lo == bound {
					lo++
				}
				if hi == bound {
					hi--
				}
			}
			if lo != iv.lo || hi != iv.hi {
				iv.lo, iv.hi = lo, hi
				changed = true
			}
			if iv.empty() {
				return false
			}
		}
		if !changed {
			break
		}
	}
	return true
}

// collectConstants gathers every constant literal in the constraint set;
// these seed the candidate values.
func collectConstants(flat []expr.Expr) []int64 {
	seen := map[int64]struct{}{}
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		switch v := e.(type) {
		case *expr.Const:
			seen[v.Val] = struct{}{}
		case *expr.Unary:
			walk(v.X)
		case *expr.Binary:
			walk(v.L)
			walk(v.R)
		}
	}
	for _, c := range flat {
		walk(c)
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// candidates builds the ordered candidate value list for one variable.
// complete reports whether the list covers the variable's whole interval
// (needed to distinguish Unsat from Unknown on exhaustion).
func (s *Solver) candidates(iv interval, consts []int64, hint int64, hasHint bool) (vals []int64, complete bool) {
	if iv.empty() {
		return nil, true
	}
	limit := s.opts.MaxCandidatesPerVar
	if w := iv.width(); w != math.MaxInt64 && w <= int64(limit) {
		// Enumerate the entire interval: the search is complete for
		// this variable.
		vals = make([]int64, 0, w)
		for v := iv.lo; ; v++ {
			vals = append(vals, v)
			if v == iv.hi {
				break
			}
		}
		if hasHint && iv.contains(hint) {
			// Try the concolic hint first.
			moveToFront(vals, hint)
		}
		return vals, true
	}

	seen := map[int64]struct{}{}
	add := func(v int64) {
		if !iv.contains(v) {
			return
		}
		if _, dup := seen[v]; dup {
			return
		}
		seen[v] = struct{}{}
		vals = append(vals, v)
	}
	if hasHint {
		add(hint)
	}
	add(0)
	add(1)
	add(-1)
	add(2)
	for _, c := range consts {
		add(c)
		add(c - 1)
		add(c + 1)
	}
	add(iv.lo)
	add(iv.lo + 1)
	add(iv.hi)
	add(iv.hi - 1)
	// Order: hint first (already first if added), then by |v| for small,
	// human-plausible models.
	head := 0
	if hasHint && len(vals) > 0 && vals[0] == hint {
		head = 1
	}
	tail := vals[head:]
	sort.Slice(tail, func(i, j int) bool {
		ai, aj := abs64(tail[i]), abs64(tail[j])
		if ai != aj {
			return ai < aj
		}
		return tail[i] < tail[j]
	})
	if len(vals) > limit {
		vals = vals[:limit]
	}
	return vals, false
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func moveToFront(vals []int64, v int64) {
	for i, x := range vals {
		if x == v {
			copy(vals[1:i+1], vals[:i])
			vals[0] = v
			return
		}
	}
}

// Solve decides the conjunction of constraints. Hints bias the search: the
// concolic seed of the forking state is tried first, which keeps witness
// models close to the observed execution. On Sat the returned assignment
// binds every variable occurring in the constraints.
func (s *Solver) Solve(constraints []expr.Expr, hints expr.Assignment) (expr.Assignment, Result) {
	s.queries.Add(1)
	flat, ok := splitConjuncts(constraints)
	if !ok {
		return nil, Unsat
	}
	if len(flat) == 0 {
		return expr.Assignment{}, Sat
	}

	// Variable inventory.
	varSet := map[string]struct{}{}
	for _, c := range flat {
		expr.CollectVars(c, varSet)
	}
	names := make([]string, 0, len(varSet))
	for n := range varSet {
		names = append(names, n)
	}
	sort.Strings(names)
	return s.search(flat, names, hints)
}

// search runs the actual decision procedure on an already-flattened
// conjunction.
func (s *Solver) search(flat []expr.Expr, names []string, hints expr.Assignment) (expr.Assignment, Result) {
	// Domains and propagation.
	domains := make(map[string]*interval, len(names))
	for _, n := range names {
		domains[n] = &interval{lo: -domainRadius, hi: domainRadius}
	}
	if !propagate(flat, domains) {
		return nil, Unsat
	}

	// Candidate sets.
	consts := collectConstants(flat)
	cand := make([][]int64, len(names))
	allComplete := true
	for i, n := range names {
		hint, hasHint := hints[n]
		vals, complete := s.candidates(*domains[n], consts, hint, hasHint)
		if len(vals) == 0 {
			if complete {
				return nil, Unsat
			}
			return nil, Unknown
		}
		cand[i] = vals
		allComplete = allComplete && complete
	}

	// Order variables by fewest candidates first (fail-fast).
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(cand[order[a]]) < len(cand[order[b]])
	})

	// Precompute which constraints become checkable after each assignment
	// step: a constraint is checkable once all its variables are bound.
	cvars := make([]map[string]struct{}, len(flat))
	for i, c := range flat {
		set := map[string]struct{}{}
		expr.CollectVars(c, set)
		cvars[i] = set
	}
	bound := map[string]struct{}{}
	checkAt := make([][]int, len(order)) // constraint indices to check after step k
	for k, vi := range order {
		bound[names[vi]] = struct{}{}
		for ci, set := range cvars {
			if len(set) == 0 {
				continue
			}
			allBound := true
			lastStep := false
			for v := range set {
				if _, isB := bound[v]; !isB {
					allBound = false
					break
				}
			}
			if allBound {
				if _, isB := set[names[vi]]; isB {
					lastStep = true
				}
			}
			if allBound && lastStep {
				checkAt[k] = append(checkAt[k], ci)
			}
		}
	}

	env := make(expr.Assignment, len(names))
	nodes := 0
	interrupted := false
	var search func(step int) bool
	search = func(step int) bool {
		if step == len(order) {
			return true
		}
		vi := order[step]
		for _, v := range cand[vi] {
			if interrupted {
				return false
			}
			nodes++
			if nodes > s.opts.MaxNodes {
				return false
			}
			if s.Interrupt != nil && nodes%64 == 0 && s.Interrupt() {
				interrupted = true
				return false
			}
			env[names[vi]] = v
			ok := true
			for _, ci := range checkAt[step] {
				val, err := expr.Eval(flat[ci], env)
				if err != nil || val == 0 {
					ok = false
					break
				}
			}
			if ok && search(step+1) {
				return true
			}
		}
		delete(env, names[vi])
		return false
	}
	found := search(0)
	if found {
		// Return a copy so callers may retain it.
		model := make(expr.Assignment, len(env))
		for k, v := range env {
			model[k] = v
		}
		return model, Sat
	}
	if nodes > s.opts.MaxNodes || interrupted || !allComplete {
		return nil, Unknown
	}
	return nil, Unsat
}
