// Package pstate provides the persistent (copy-on-write) containers the
// VM's O(1) state snapshots are built on.
//
// Vector is a bit-partitioned radix trie in the HAMT family: a 32-way
// tree keyed by the integer index's bit groups, so lookups and updates
// touch O(log32 n) nodes and a persistent update path-copies only the
// spine from root to the changed slot, structurally sharing everything
// else. On top of the purely persistent shape sits epoch transience:
// every node carries the epoch stamp of the state generation that
// allocated it, and an update performed under the same epoch mutates the
// node in place instead of copying. A state therefore pays the path-copy
// for a slot's spine at most once per epoch — the "write on first touch
// per epoch" discipline — and a tight loop of writes between two
// snapshots runs allocation-free after the first touch.
//
// Epoch protocol (owned by the caller, see internal/vm):
//   - every live state generation has a unique epoch, never reused;
//   - snapshotting a state gives BOTH resulting handles fresh epochs
//     while the shared nodes keep their old stamps, so the first write on
//     either side copies instead of scribbling on shared structure;
//   - nodes are only ever mutated under the epoch that allocated them,
//     so a node reachable from two handles is immutable from both.
//
// The zero Vector is an empty vector and is ready to use. Vector is a
// small value (three words); copying the struct IS the snapshot.
package pstate

const (
	bits  = 5
	width = 1 << bits // 32-way fan-out
	mask  = width - 1
)

// node is one trie node. Interior nodes (reached while shift > 0) use
// kids; leaf nodes (shift == 0) use vals. A single node type keeps the
// path-copy generic and monomorphic; the unused half of a node is nil.
type node[T any] struct {
	stamp uint64 // epoch that allocated this node; in-place writes only under it
	kids  []*node[T]
	vals  []T
}

// Vector is a persistent, epoch-transient growable array of T. The zero
// value is empty. Methods that write take the caller's epoch; methods
// that read never allocate.
type Vector[T any] struct {
	n     int
	shift uint // bits consumed below the root; 0 means the root is a leaf
	root  *node[T]
}

// Len returns the number of elements.
func (v *Vector[T]) Len() int { return v.n }

// Get returns the element at index i. It panics if i is out of range,
// mirroring slice indexing.
func (v *Vector[T]) Get(i int) T {
	if i < 0 || i >= v.n {
		panic("pstate: Vector index out of range")
	}
	nd := v.root
	for sh := v.shift; sh > 0; sh -= bits {
		nd = nd.kids[(i>>sh)&mask]
	}
	return nd.vals[i&mask]
}

// privatize returns nd if it is already owned by epoch, or a copy
// stamped with epoch otherwise (allocating the copy and fresh backing
// for whichever half the node uses).
func privatize[T any](nd *node[T], epoch uint64) *node[T] {
	if nd != nil && nd.stamp == epoch {
		return nd
	}
	c := &node[T]{stamp: epoch}
	if nd != nil {
		if nd.kids != nil {
			c.kids = make([]*node[T], width)
			copy(c.kids, nd.kids)
		}
		if nd.vals != nil {
			c.vals = make([]T, width)
			copy(c.vals, nd.vals)
		}
	}
	return c
}

// set path-copies (or reuses, under matching epoch stamps) the spine for
// index i and stores x at the leaf.
func set[T any](nd *node[T], shift uint, i int, x T, epoch uint64) *node[T] {
	nd = privatize(nd, epoch)
	if shift == 0 {
		if nd.vals == nil {
			nd.vals = make([]T, width)
		}
		nd.vals[i&mask] = x
		return nd
	}
	if nd.kids == nil {
		nd.kids = make([]*node[T], width)
	}
	slot := (i >> shift) & mask
	nd.kids[slot] = set(nd.kids[slot], shift-bits, i, x, epoch)
	return nd
}

// Set stores x at index i. Nodes stamped with epoch are written in
// place; all others are path-copied, leaving previous snapshots intact.
// It panics if i is out of range.
func (v *Vector[T]) Set(i int, x T, epoch uint64) {
	if i < 0 || i >= v.n {
		panic("pstate: Vector index out of range")
	}
	v.root = set(v.root, v.shift, i, x, epoch)
}

// Append adds x at index Len(), growing the trie a level when the
// current root is full.
func (v *Vector[T]) Append(x T, epoch uint64) {
	if v.root != nil && v.n >= width<<v.shift {
		// Root is full: push it down under a new root.
		nr := &node[T]{stamp: epoch, kids: make([]*node[T], width)}
		nr.kids[0] = v.root
		v.root, v.shift = nr, v.shift+bits
	}
	v.n++
	v.root = set(v.root, v.shift, v.n-1, x, epoch)
}

// Range calls f on each element in index order, stopping early if f
// returns false. It reads the trie directly and never allocates.
func (v *Vector[T]) Range(f func(i int, x T) bool) {
	if v.root == nil {
		return
	}
	walk(v.root, v.shift, 0, v.n, f)
}

func walk[T any](nd *node[T], shift uint, base, n int, f func(int, T) bool) bool {
	if nd == nil {
		return true
	}
	if shift == 0 {
		for j, x := range nd.vals {
			i := base + j
			if i >= n {
				return true
			}
			if !f(i, x) {
				return false
			}
		}
		return true
	}
	span := 1 << shift
	for j, kid := range nd.kids {
		lo := base + j*span
		if lo >= n {
			return true
		}
		if !walk(kid, shift-bits, lo, n, f) {
			return false
		}
	}
	return true
}

// EqualFunc reports whether a and b have the same length and eq holds
// for every pair of elements at equal indices. Subtrees the two vectors
// share — everything a snapshot and its source have not written since —
// compare equal by pointer without being walked, so comparing a vector
// against an earlier snapshot of itself costs O(written spines), not
// O(n). eq is only called on indices below Len.
func EqualFunc[T any](a, b *Vector[T], eq func(x, y T) bool) bool {
	if a.n != b.n {
		return false
	}
	// Append is the only way to grow a vector, so equal lengths imply
	// equal trie heights and the two tries can be walked in lockstep.
	return nodesEqual(a.root, b.root, a.shift, 0, a.n, eq)
}

func nodesEqual[T any](x, y *node[T], shift uint, base, n int, eq func(T, T) bool) bool {
	if x == y {
		return true
	}
	if x == nil || y == nil {
		return false
	}
	if shift == 0 {
		for j := 0; j < width && base+j < n; j++ {
			if !eq(x.vals[j], y.vals[j]) {
				return false
			}
		}
		return true
	}
	span := 1 << shift
	for j := 0; j < width && base+j*span < n; j++ {
		if !nodesEqual(x.kids[j], y.kids[j], shift-bits, base+j*span, n, eq) {
			return false
		}
	}
	return true
}
