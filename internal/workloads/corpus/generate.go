package corpus

// The generator: a deterministic, seedable source of labeled corpus
// programs. Each generated program draws its parameters from a splitmix64
// stream keyed by (seed, family, index), so the full suite is a pure
// function of (seed, perFamily) — same seed, same program text, same
// labels, byte for byte. Program *names* deliberately do not embed the
// seed: changing the seed changes content, not identity, so accuracy
// baselines diff cleanly across seeds.

// rng is a splitmix64 stream — the same generator the engine uses for
// schedule seeds, chosen here for determinism and statelessness, not
// statistical strength.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between returns a draw in [lo, hi], inclusive.
func (r *rng) between(lo, hi int) int {
	return lo + int(r.next()%uint64(hi-lo+1))
}

// progRNG keys an independent stream per (seed, family, index), so adding
// a family or widening one never reshuffles the draws of the others.
func progRNG(seed uint64, famIdx, i int) *rng {
	return &rng{s: seed ^ uint64(famIdx+1)*0x517cc1b727220a95 ^ uint64(i+1)*0x2545f4914f6cdd1d}
}

// generators lists the family templates the generator stamps out, in
// canonical order. The condvar-handoff and solver-blind families stay
// curated-only: their labels hinge on delicate solver/scheduler behavior
// that parameter variation would not exercise further.
var generators = []struct {
	fam   Family
	build func(r *rng, name string) *Program
}{
	{FamAdhocFlag, func(r *rng, name string) *Program {
		vals := make([]int64, r.between(1, 3))
		for i := range vals {
			vals[i] = int64(r.between(5, 90))
		}
		return adhocFlag(name, vals, r.between(6, 10))
	}},
	{FamDCL, func(r *rng, name string) *Program {
		return dcl(name, r.between(2, 4), int64(r.between(10, 99)))
	}},
	{FamRedundantWrite, func(r *rng, name string) *Program {
		return redundantWrite(name, int64(r.between(0, 9)), int64(r.between(1, 40)), r.between(2, 3))
	}},
	{FamBenignGauge, func(r *rng, name string) *Program {
		return benignGauge(name, int64(r.between(10, 60)), int64(r.between(61, 99)))
	}},
	{FamStatsOutput, func(r *rng, name string) *Program {
		// Alternate gated and ungated variants so both the direct and the
		// multi-path-only outDiff discoveries stay covered.
		return statsOutput(name, r.between(1, 2), r.between(0, 1) == 1)
	}},
	{FamStatsSilent, func(r *rng, name string) *Program {
		va := int64(r.between(1, 40))
		return statsSilent(name, r.between(1, 3), va, va+int64(r.between(1, 20)))
	}},
	{FamDeadlock, func(r *rng, name string) *Program {
		return deadlockFlag(name, r.between(2, 9))
	}},
	{FamCrashIndex, func(r *rng, name string) *Program {
		size := r.between(3, 6)
		return crashIndex(name, size, int64(r.between(0, size-1)), int64(r.between(1, 30)), r.between(5, 8))
	}},
	{FamDoubleFree, func(r *rng, name string) *Program {
		return doubleFree(name, r.between(3, 12), r.between(2, 6))
	}},
	{FamLockFreeQueue, func(r *rng, name string) *Program {
		return lockFreeQueue(name, r.between(6, 9))
	}},
	{FamBarrierHandoff, func(r *rng, name string) *Program {
		return barrierHandoff(name, int64(r.between(1, 50)))
	}},
	{FamSymPrefix, func(r *rng, name string) *Program {
		return symPrefix(name, r.between(2, 4), r.between(2, 5), r.between(80, 220))
	}},
}

// Generate returns perFamily labeled instances of every generator
// template, deterministically derived from seed.
func Generate(seed uint64, perFamily int) []*Program {
	var out []*Program
	for famIdx, g := range generators {
		for i := 0; i < perFamily; i++ {
			p := g.build(progRNG(seed, famIdx, i), genName(g.fam, i))
			p.Generated = true
			p.Seed = seed
			out = append(out, p)
		}
	}
	return out
}
