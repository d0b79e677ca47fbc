package expr

// Structural hashing.
//
// Every node built through this package's constructors carries a hash of
// its structure (operator tags, constant values, symbol names), memoized
// in the unexported h field at construction time — before the node is
// published, so readers never observe a write. Because expressions form a
// DAG of immutable nodes, a parent's hash is computed from its children's
// memoized hashes in O(1); the whole tree is never re-walked.
//
// The hash is a pure function of structure: structurally equal
// expressions always hash equal, so a hash mismatch proves inequality
// (the fast path in Equal).
//
// A memoized hash is never 0; the zero value marks nodes built outside
// the constructors (struct literals in tests), for which Hash recomputes
// on the fly without memoizing — recomputing is race-free where a lazy
// write would not be.

// Mix64 is the SplitMix64 finalizer. Every step (odd-constant add,
// xor-shift, odd-constant multiply) is a bijection on uint64, so the
// whole function is one too: distinct single-word inputs never collide.
// It is the repository's one word mixer — the expression hashes here,
// the solver's cache keys, and the engine's alternate-schedule seed
// derivation all compose it rather than keeping private copies.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is allocation-free FNV-1a over s. Compose the result with
// Mix64 to spread the (weakly mixed) FNV state across all 64 bits.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Distinct seeds keep the node kinds in separate hash families, so e.g.
// Const(5) and Sym("5") cannot collide by construction shape alone.
const (
	hashSeedConst  = 0xc6a4a7935bd1e995
	hashSeedSym    = 0x9ddfea08eb382d69
	hashSeedUnary  = 0xa0761d6478bd642f
	hashSeedBinary = 0xe7037ed1a0b428db
)

// nonzero maps the impossible-to-memoize value 0 to an arbitrary fixed
// hash so the h field's zero value stays free to mean "not memoized".
func nonzero(h uint64) uint64 {
	if h == 0 {
		return 0x1d8e4e27c47d124f
	}
	return h
}

func hashConst(v int64) uint64 {
	return nonzero(Mix64(uint64(v) ^ hashSeedConst))
}

func hashSym(name string) uint64 {
	return nonzero(Mix64(hashString(name) ^ hashSeedSym))
}

func hashUnary(op Op, xh uint64) uint64 {
	return nonzero(Mix64(xh ^ Mix64(uint64(op)^hashSeedUnary)))
}

func hashBinary(op Op, lh, rh uint64) uint64 {
	// Asymmetric combination: L and R must not commute (a-b != b-a).
	h := Mix64(uint64(op) ^ hashSeedBinary)
	h = Mix64(h ^ lh)
	h = Mix64(h ^ rh)
	return nonzero(h)
}

// Hash returns the structural hash of e. For constructor-built nodes this
// is a field read; nodes assembled by hand (zero h) are hashed on the fly.
func Hash(e Expr) uint64 {
	switch v := e.(type) {
	case *Const:
		if v.h != 0 {
			return v.h
		}
		return hashConst(v.Val)
	case *Sym:
		if v.h != 0 {
			return v.h
		}
		return hashSym(v.Name)
	case *Unary:
		if v.h != 0 {
			return v.h
		}
		return hashUnary(v.Op, Hash(v.X))
	case *Binary:
		if v.h != 0 {
			return v.h
		}
		return hashBinary(v.Op, Hash(v.L), Hash(v.R))
	}
	return nonzero(0)
}

// memoHash returns the memoized hash, or 0 when the node was built
// outside the constructors. Used by Equal's fast path, which must not pay
// for recomputation.
func memoHash(e Expr) uint64 {
	switch v := e.(type) {
	case *Const:
		return v.h
	case *Sym:
		return v.h
	case *Unary:
		return v.h
	case *Binary:
		return v.h
	}
	return 0
}
