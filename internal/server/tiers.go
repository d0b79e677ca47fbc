package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"sync"

	"repro/internal/core"
)

// tierKey addresses a cache tier: the SHA-256 of the submission's
// canonical fingerprint. Identical keys mean identical (program, args,
// inputs, engine options) — the soundness contract core.CacheTier
// requires — so the deterministic engine records the identical trace
// and cached states are interchangeable across runs.
type tierKey [sha256.Size]byte

// fingerprint captures everything that shapes a run's trace and
// verdicts. Parallel is deliberately absent: verdict content and the
// recorded trace are byte-identical at every pool width (the
// determinism suite pins this), so submissions differing only in width
// share a tier and each other's warmth.
type fingerprint struct {
	Workload  string  `json:"w,omitempty"`
	Source    string  `json:"s,omitempty"`
	Name      string  `json:"n,omitempty"`
	Args      []int64 `json:"a"`
	ArgsSet   bool    `json:"as"`
	Inputs    []int64 `json:"i"`
	InputsSet bool    `json:"is"`

	Mp, Ma, Sym, MaxForks    int
	RunBudget, EnforceBudget int64
	Seed                     uint64
	SeedSet                  bool
}

// keyFor derives the tier key for a request resolved to effective
// engine options (post-degradation, so degraded runs get their own
// tier and never poison a full-budget tier's checkpoints).
func keyFor(req *Request, opts core.Options) tierKey {
	fp := fingerprint{
		Workload:  req.Workload,
		Source:    req.Source,
		Name:      req.Name,
		Args:      req.Args,
		ArgsSet:   req.Args != nil,
		Inputs:    req.Inputs,
		InputsSet: req.Inputs != nil,

		Mp:            opts.Mp,
		Ma:            opts.Ma,
		Sym:           opts.SymbolicInputs,
		MaxForks:      opts.MaxForks,
		RunBudget:     opts.RunBudget,
		EnforceBudget: opts.EnforceBudget,
		Seed:          opts.Seed,
		SeedSet:       opts.SeedSet,
	}
	b, err := json.Marshal(fp)
	if err != nil {
		// fingerprint is marshal-safe by construction
		panic(err)
	}
	return sha256.Sum256(b)
}

// tierRegistry is the LRU-bounded map from submission key to its
// persistent cache tier. Eviction drops whole tiers (their stores and
// solver memo) — the memory budget is enforced at tier granularity,
// against measured tier footprints (core.CacheTier.MemBytes), with a
// hard tier-count bound on top (which binds first; see estTierMB).
type tierRegistry struct {
	mu          sync.Mutex
	max         int
	budgetBytes int64 // measured-footprint budget (0 = count bound only)
	m           map[tierKey]*list.Element
	lru         list.List // front = most recently used

	evictions int64
}

type tierEntry struct {
	key  tierKey
	tier *core.CacheTier
}

// newTierRegistry builds a registry holding at most max tiers within
// budgetBytes of measured footprint.
func newTierRegistry(max int, budgetBytes int64) *tierRegistry {
	if max < 1 {
		max = 1
	}
	return &tierRegistry{max: max, budgetBytes: budgetBytes, m: make(map[tierKey]*list.Element)}
}

// get returns the tier for key, creating it on first sight. Creation
// evicts least-recently-used tiers while the registry is over its count
// bound or its measured byte budget (the newly created tier is at the
// LRU front and never evicts itself).
func (r *tierRegistry) get(key tierKey) (tier *core.CacheTier, created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.m[key]; ok {
		r.lru.MoveToFront(el)
		return el.Value.(*tierEntry).tier, false
	}
	t := core.NewCacheTier(core.DefaultOptions())
	r.m[key] = r.lru.PushFront(&tierEntry{key: key, tier: t})
	for len(r.m) > 1 && (len(r.m) > r.max || (r.budgetBytes > 0 && r.bytesLocked() > r.budgetBytes)) {
		oldest := r.lru.Back()
		if oldest == nil {
			break
		}
		r.lru.Remove(oldest)
		delete(r.m, oldest.Value.(*tierEntry).key)
		r.evictions++
	}
	return t, true
}

// evict drops the tier for key (used to poison the tier of a panicking
// run: a panic mid-deposit may have left its stores inconsistent, so
// the whole tier is discarded rather than trusted). Reports whether a
// tier was resident.
func (r *tierRegistry) evict(key tierKey) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.m[key]
	if !ok {
		return false
	}
	r.lru.Remove(el)
	delete(r.m, key)
	r.evictions++
	return true
}

// bytesLocked sums the measured footprint of every resident tier.
// Callers hold r.mu.
func (r *tierRegistry) bytesLocked() int64 {
	var n int64
	for el := r.lru.Front(); el != nil; el = el.Next() {
		n += el.Value.(*tierEntry).tier.MemBytes()
	}
	return n
}

// each calls fn for every resident tier, most recently used first,
// without holding the registry lock during fn (the snapshot of entries
// is taken under the lock). Used by the drain-time flush.
func (r *tierRegistry) each(fn func(key tierKey, t *core.CacheTier)) {
	r.mu.Lock()
	ents := make([]*tierEntry, 0, len(r.m))
	for el := r.lru.Front(); el != nil; el = el.Next() {
		ents = append(ents, el.Value.(*tierEntry))
	}
	r.mu.Unlock()
	for _, e := range ents {
		fn(e.key, e.tier)
	}
}

// snapshot sums every resident tier's stats and measured bytes for
// /metrics.
func (r *tierRegistry) snapshot() (n int, evictions int64, bytes int64, agg core.TierStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for el := r.lru.Front(); el != nil; el = el.Next() {
		bytes += el.Value.(*tierEntry).tier.MemBytes()
		s := el.Value.(*tierEntry).tier.Stats()
		agg.Checkpoints += s.Checkpoints
		agg.CheckpointHits += s.CheckpointHits
		agg.CheckpointMisses += s.CheckpointMisses
		agg.CheckpointThinned += s.CheckpointThinned
		agg.SolverEntries += s.SolverEntries
		agg.SolverHits += s.SolverHits
		agg.SolverMisses += s.SolverMisses
		agg.SolverEvictions += s.SolverEvictions
	}
	return len(r.m), r.evictions, bytes, agg
}
