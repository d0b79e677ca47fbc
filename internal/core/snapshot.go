package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/ckpt"
	"repro/internal/trace"
	"repro/internal/vm"
)

// This file gives CacheTier a durable form: Snapshot renders everything
// the tier holds — its replay checkpoints — into one gob-friendly value,
// and Restore rebuilds a tier from it after a daemon restart.
//
// Soundness rests on the same determinism contract that lets a tier be
// shared between runs at all: identical (program, args, inputs, options)
// produce an identical recorded trace, so checkpoints deserialized
// against the snapshot's trace are states the next run's replay passes
// through anyway. Restore leaves the checkpoint store's trace binding
// clear; the next run binds its freshly recorded trace while restored
// replay controllers keep the deserialized (content-identical) one.
//
// Persistence is a cache, never an obligation: an entry whose controller
// or observer has no wire form is skipped at Snapshot time (the restored
// tier is merely less warm), and Restore fails atomically — a decode
// error imports nothing, leaving the tier cold but correct.
//
// Tier files written while the engine kept a second, exploration-mainline
// checkpoint store carry a Sym section, and files written while it kept a
// solver cache carry a Solver section. TierSnapshot declares neither, so
// gob skips both on decode and only the replay checkpoints are restored.

// Controller kinds of the wire form. Every controller the engine
// deposits is serializable; an entry driven by anything else is skipped.
const (
	ctlReplay     = "replay"
	ctlRoundRobin = "round-robin"
	ctlSticky     = "sticky"
	ctlRandom     = "random"
)

// CtlWire is one scheduling controller in wire form.
type CtlWire struct {
	Kind       string
	Pos        int    // replay: decisions consumed
	Diverged   bool   // replay
	DivergedAt int    // replay
	Exhausted  bool   // replay
	Last       int    // round-robin: last chosen thread id
	Rand       uint64 // random: exact xorshift state
	Fallback   *CtlWire
}

// encodeCtl renders a controller; ok is false for kinds with no wire form.
func encodeCtl(c vm.Controller) (*CtlWire, bool) {
	switch v := c.(type) {
	case *trace.Replayer:
		fb, ok := encodeCtl(v.Fallback)
		if !ok {
			return nil, false
		}
		return &CtlWire{
			Kind: ctlReplay, Pos: v.Pos(),
			Diverged: v.Diverged, DivergedAt: v.DivergedAt, Exhausted: v.Exhausted,
			Fallback: fb,
		}, true
	case *vm.RoundRobin:
		return &CtlWire{Kind: ctlRoundRobin, Last: v.Last()}, true
	case vm.Sticky:
		return &CtlWire{Kind: ctlSticky}, true
	case *vm.Random:
		// The xorshift state is the whole controller: restoring it
		// reproduces the seeded alternate schedule pick for pick.
		return &CtlWire{Kind: ctlRandom, Rand: v.State()}, true
	}
	return nil, false
}

// decodeCtl rebuilds a controller. Replayers re-bind to tr — the
// snapshot's deserialized trace, content-identical to the one they were
// recorded against.
func decodeCtl(w *CtlWire, tr *trace.Trace) (vm.CloneableController, error) {
	if w == nil {
		return nil, fmt.Errorf("core: missing controller wire")
	}
	switch w.Kind {
	case ctlReplay:
		if tr == nil {
			return nil, fmt.Errorf("core: replay controller in a snapshot without a trace")
		}
		fb, err := decodeCtl(w.Fallback, tr)
		if err != nil {
			return nil, err
		}
		r := trace.ReplayerAt(tr, fb, w.Pos)
		r.Diverged = w.Diverged
		r.DivergedAt = w.DivergedAt
		r.Exhausted = w.Exhausted
		return r, nil
	case ctlRoundRobin:
		return vm.RoundRobinAt(w.Last), nil
	case ctlSticky:
		return vm.Sticky{}, nil
	case ctlRandom:
		return vm.RandomAt(w.Rand), nil
	}
	return nil, fmt.Errorf("core: unknown controller kind %q", w.Kind)
}

// Observer kinds of the wire form.
const (
	obsAccessCounter = "access-counter"
	obsPredicate     = "predicate"
)

// objWire is one touched object class.
type objWire struct {
	Space uint8
	Obj   int64
}

// readWire is one read-count bucket of the access counter.
type readWire struct {
	Space uint8
	Obj   int64
	TID   int64
	Line  int32
	N     int
}

// acWire is the access counter's wire form; both slices are sorted so
// the payload is canonical regardless of map iteration order.
type acWire struct {
	Reads   []readWire
	Touched []objWire
}

// predWire is the predicate observer's wire form. The check functions
// themselves have no wire form; the first run after Restore re-binds
// them from its effective options (bindPredicates), and the recorded
// names guard against a mismatched rebind.
type predWire struct {
	Names     []string
	Violation string
}

// touchedObjs lists the counter's touched object classes: globals
// ascending, then the heap class — the (space, obj) order.
func touchedObjs(ac *accessCounter) []objWire {
	var out []objWire
	for i, word := range ac.globals {
		for ; word != 0; word &= word - 1 {
			g := int64(i*64 + bits.TrailingZeros64(word))
			out = append(out, objWire{Space: uint8(vm.SpaceGlobal), Obj: g})
		}
	}
	if ac.heap {
		out = append(out, objWire{Space: uint8(vm.SpaceHeap)})
	}
	return out
}

// checkClass rejects an object class that no program with nGlobals
// globals can produce: a global out of range, a heap class other than
// 0, or an unknown space. A restored counter sizes its touched bitset
// by the largest global, so a corrupt tier must not pick that size.
func checkClass(space uint8, obj int64, nGlobals int) error {
	switch vm.Space(space) {
	case vm.SpaceGlobal:
		if obj >= 0 && obj < int64(nGlobals) {
			return nil
		}
	case vm.SpaceHeap:
		if obj == 0 {
			return nil
		}
	}
	return fmt.Errorf("core: access-counter class (space %d, obj %d) is not one of the program's %d globals or the heap", space, obj, nGlobals)
}

// encodeObs serializes the observers the engine deposits on checkpoint
// states — access counters and predicate observers; anything else makes
// the state unserializable and its entry is skipped.
func encodeObs(o vm.Observer) (kind string, data []byte, ok bool) {
	var buf bytes.Buffer
	switch v := o.(type) {
	case *accessCounter:
		w := acWire{Touched: touchedObjs(v), Reads: make([]readWire, 0, len(v.reads))}
		for k, n := range v.reads {
			w.Reads = append(w.Reads, readWire{Space: uint8(k.space), Obj: k.obj, TID: k.tid, Line: k.line, N: n})
		}
		sort.Slice(w.Reads, func(i, j int) bool {
			a, b := w.Reads[i], w.Reads[j]
			if a.Space != b.Space {
				return a.Space < b.Space
			}
			if a.Obj != b.Obj {
				return a.Obj < b.Obj
			}
			if a.TID != b.TID {
				return a.TID < b.TID
			}
			return a.Line < b.Line
		})
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			return "", nil, false
		}
		return obsAccessCounter, buf.Bytes(), true
	case *PredicateObserver:
		w := predWire{Violation: v.Violation, Names: make([]string, len(v.Preds))}
		for i, p := range v.Preds {
			w.Names[i] = p.Name
		}
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			return "", nil, false
		}
		return obsPredicate, buf.Bytes(), true
	}
	return "", nil, false
}

// pendingPred is one restored predicate observer awaiting its check
// functions; Restore collects these and bindPredicates completes them.
type pendingPred struct {
	po    *PredicateObserver
	names []string
}

// bindPredicates re-attaches check functions to predicate observers
// restored from a snapshot. The functions are configuration, not state
// — they have no wire form and every run keyed to the tier carries the
// identical set — so Restore leaves each observer unbound and the first
// run's effective options complete it here. A caller whose predicate
// names differ has broken the tier sharing contract; its observers stay
// unbound (losing only predicate sensitivity on resumed paths), which
// is the least surprising behavior for input the contract excludes.
// The tier lock is held while binding, so a concurrent run's classifier
// cannot resume a restored observer before its functions are set.
func (t *CacheTier) bindPredicates(preds []Predicate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pend := t.pendingPreds
	t.pendingPreds = nil
	for _, p := range pend {
		if len(p.names) != len(preds) {
			continue
		}
		ok := true
		for i, n := range p.names {
			if preds[i].Name != n {
				ok = false
				break
			}
		}
		if ok {
			p.po.Preds = preds
		}
	}
}

// decodeObs rebuilds an observer from its wire form; nGlobals is the
// global count of the program the observer's state executes.
func decodeObs(kind string, data []byte, nGlobals int) (vm.Observer, error) {
	dec := gob.NewDecoder(bytes.NewReader(data))
	switch kind {
	case obsAccessCounter:
		var w acWire
		if err := dec.Decode(&w); err != nil {
			return nil, fmt.Errorf("core: access-counter observer: %w", err)
		}
		ac := newAccessCounter()
		for _, r := range w.Reads {
			if err := checkClass(r.Space, r.Obj, nGlobals); err != nil {
				return nil, err
			}
			ac.reads[counterKey{space: vm.Space(r.Space), obj: r.Obj, tid: r.TID, line: r.Line}] = r.N
		}
		for _, t := range w.Touched {
			if err := checkClass(t.Space, t.Obj, nGlobals); err != nil {
				return nil, err
			}
			ac.touch(vm.Space(t.Space), t.Obj)
		}
		return ac, nil
	}
	return nil, fmt.Errorf("core: unknown observer kind %q", kind)
}

// ConcreteEntryWire is one replay checkpoint in wire form.
type ConcreteEntryWire struct {
	Steps int64
	State *vm.StateWire
	Ctl   *CtlWire
}

// TierSnapshot is the durable form of a CacheTier. All fields are
// exported and gob-friendly; internal/dstore frames and checksums the
// encoded bytes.
type TierSnapshot struct {
	Runs int64

	// Program is the compiled program the checkpoint states execute; nil
	// when the snapshot carries no states. Its derived write sets are
	// unexported and recomputed at Restore.
	Program *bytecode.Program

	// Trace is the recorded schedule the checkpoint controllers replay;
	// nil when the snapshot carries no states.
	Trace *trace.Trace

	Concrete        []ConcreteEntryWire
	ConcreteStride  int64
	ConcreteThinned int64
	ConcreteHits    int64
	ConcreteMisses  int64
}

// Snapshot renders the tier's current content into its durable form.
// Entries whose controller or observer has no wire form are skipped —
// the snapshot is a cache, and a skipped entry only costs warmth. Static
// facts are not persisted: the pass is a cheap pure function of the
// program and the first post-restore run recomputes it.
//
// The caller must ensure no run is active on the tier (SnapshotIfIdle
// enforces it): a run still recording would let the snapshot capture a
// prefix of its trace while checkpoint controllers reference positions
// beyond it, and a restored resume would then fall back mid-replay
// instead of following the recorded schedule.
func (t *CacheTier) Snapshot() *TierSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// SnapshotIfIdle snapshots the tier unless a run is active on it; the
// tier lock is held for the whole encode, so no run can begin (and no
// trace can be rebound) while the snapshot is taken. ok is false when a
// run was active — the caller simply skips this flush and the next
// run's completion flushes instead.
func (t *CacheTier) SnapshotIfIdle() (snap *TierSnapshot, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active > 0 {
		return nil, false
	}
	return t.snapshotLocked(), true
}

// snapshotLocked does the encoding; callers hold t.mu.
func (t *CacheTier) snapshotLocked() *TierSnapshot {
	runs := t.runs

	tr := t.tr
	cx := t.store.Export()
	if tr == nil {
		// Restore and BeginRun leave the binding clear until detection
		// binds a new trace; the stored replayers still carry one, and
		// their wire form is unreadable without it.
		tr = replayedTrace(cx)
	}

	snap := &TierSnapshot{Runs: runs}
	if tr != nil {
		snap.Trace = tr.Clone()
	}
	snap.Concrete, snap.Program = encodeEntries(cx.Entries)
	snap.ConcreteStride, snap.ConcreteThinned = cx.Stride, cx.Thinned
	snap.ConcreteHits, snap.ConcreteMisses = cx.Hits, cx.Misses
	return snap
}

// replayedTrace returns the trace a stored replay controller follows, or
// nil when no stored entry replays one. Under the tier's determinism
// contract every stored replayer's trace has the same content.
func replayedTrace(x ckpt.Exported) *trace.Trace {
	for _, e := range x.Entries {
		if r, ok := e.Ctl.(*trace.Replayer); ok {
			return r.T
		}
	}
	return nil
}

// encodeEntries renders checkpoints in wire form and returns them with
// the program the first one executes. An entry whose state, observer, or
// controller lacks a wire form is skipped — the snapshot is a cache, and
// a skipped entry only costs warmth.
func encodeEntries(es []ckpt.Entry) (out []ConcreteEntryWire, prog *bytecode.Program) {
	for _, e := range es {
		sw, ok := vm.EncodeState(e.State, encodeObs)
		if !ok {
			continue
		}
		cw, ok := encodeCtl(e.Ctl)
		if !ok {
			continue
		}
		if prog == nil {
			prog = e.State.Prog
		}
		out = append(out, ConcreteEntryWire{Steps: e.State.Steps, State: sw, Ctl: cw})
	}
	return out, prog
}

// Restore rebuilds the tier's content from a snapshot. It is atomic: any
// decode error imports nothing and the tier stays as it was (cold but
// correct). The shared trace binding is left clear — the next run binds
// its freshly recorded trace, while restored replay controllers keep the
// deserialized one, sound under the tier's determinism contract.
func (t *CacheTier) Restore(snap *TierSnapshot) error {
	prog := snap.Program
	nGlobals := 0
	if prog != nil {
		prog.RecomputeWriteSets()
		nGlobals = len(prog.Globals)
	}
	tr := snap.Trace

	// Predicate observers come off the wire without their check
	// functions; collect them and commit to the tier only if the whole
	// decode succeeds, for bindPredicates to complete on the next run.
	var pend []pendingPred
	decObs := func(kind string, data []byte) (vm.Observer, error) {
		if kind != obsPredicate {
			return decodeObs(kind, data, nGlobals)
		}
		var w predWire
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
			return nil, fmt.Errorf("core: predicate observer: %w", err)
		}
		po := &PredicateObserver{Violation: w.Violation}
		pend = append(pend, pendingPred{po: po, names: w.Names})
		return po, nil
	}

	cx := ckpt.Exported{
		Stride: snap.ConcreteStride, Thinned: snap.ConcreteThinned,
		Hits: snap.ConcreteHits, Misses: snap.ConcreteMisses,
	}
	for _, ew := range snap.Concrete {
		var e ckpt.Entry
		var err error
		if e.State, err = vm.DecodeState(prog, ew.State, decObs); err == nil {
			e.Ctl, err = decodeCtl(ew.Ctl, tr)
		}
		if err != nil {
			return fmt.Errorf("concrete checkpoint @%d: %w", ew.Steps, err)
		}
		cx.Entries = append(cx.Entries, e)
	}

	// Everything decoded; import atomically from here on.
	t.store.Import(cx)
	t.mu.Lock()
	t.runs = snap.Runs
	t.pendingPreds = pend
	t.mu.Unlock()
	return nil
}

// MemBytes estimates the tier's resident footprint: every stored
// checkpoint state. This is what the server's memory-budget registry and
// the portend_tier_bytes gauge report instead of a flat per-tier guess.
func (t *CacheTier) MemBytes() int64 {
	return t.store.MemBytes()
}
