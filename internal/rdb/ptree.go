package rdb

import (
	"math/bits"
	"slices"
)

// This file provides the persistent (immutable, path-copying) data
// structures the MVCC storage layer is built on. A table's committed
// state is a tree of shared nodes; a writer derives the next version
// by copying only the O(log n) nodes on the paths it touches, so
// commits publish new versions without ever disturbing readers, and
// rolling back is simply dropping the derived version.
//
//   - ptree[V]: a 32-way radix trie keyed by uint64, used for the row
//     store (row id -> tuple) and for the id sets inside secondary
//     indexes. Iteration is in ascending key order, which makes row-id
//     order the stable scan order. Nodes are bitmap-compressed
//     (Bagwell's hash array mapped trie): a node stores only its
//     occupied slots. A tree of one entry keeps it in the header and
//     has no nodes at all, so a one-row posting list costs nothing
//     beyond the index slot that holds it.
//   - pmap[V]: a persistent map over two ptrees, used for the
//     primary-key and secondary value indexes. A single INTEGER key —
//     every key and foreign key of Figure 1 — keys an exact trie by
//     its zigzag code; any other key tuple keys a hashed trie of small
//     collision buckets by its encoding (encodeKey).
//
// Transient nodes: the *O mutators additionally take an ownership
// token (*ptOwner). A node stamped with the caller's live token is
// known to be reachable only through values derived since that token
// was issued, so it is mutated in place (its slot arrays may grow in
// place) instead of path-copied; any other node (frozen, or owned by
// an older token) is copied and the copy stamped. A copy never shares
// the original's arrays. A transaction issues a fresh token at begin
// and again at every savepoint, which makes repeated path copies
// within one batch collapse into in-place writes while keeping every
// published or savepoint-captured version immutable.

const (
	ptBits  = 5
	ptWidth = 1 << ptBits
	ptMask  = ptWidth - 1
)

// ptOwner is a transient-ownership token. Tokens are compared by
// identity: a node whose owner field holds the caller's live token may
// be mutated in place (see the package comment).
type ptOwner struct{ _ byte }

// newOwner issues a fresh ownership token.
func newOwner() *ptOwner { return new(ptOwner) }

// ptNode is one bitmap-compressed trie node. present has one bit per
// occupied slot; inner nodes keep their children in kids and leaves
// their values in vals, one element per set bit in slot order, so
// slot i lives at the population count of the bits below it. owner is
// the transient token the node was created under; nil marks a frozen
// (shareable) node.
type ptNode[V any] struct {
	kids    []*ptNode[V]
	vals    []V
	present uint32
	owner   *ptOwner
}

// editable reports whether n may be mutated in place under token o.
func (n *ptNode[V]) editable(o *ptOwner) bool {
	return n != nil && o != nil && n.owner == o
}

// slot returns the array position of slot i in n and whether the
// slot is occupied. A nil n has no occupied slots.
func (n *ptNode[V]) slot(i uint64) (pos int, ok bool) {
	if n == nil {
		return 0, false
	}
	bit := uint32(1) << i
	return bits.OnesCount32(n.present & (bit - 1)), n.present&bit != 0
}

// ptree is a persistent uint64-keyed map. The zero value is empty.
// All mutating operations return a new tree sharing structure with
// the receiver; the receiver is never modified. A tree with exactly
// one entry holds it inline (k1, v1) with a nil root; a tree with a
// root holds at least two entries.
type ptree[V any] struct {
	root  *ptNode[V]
	shift uint
	size  int
	k1    uint64
	v1    V
}

// len returns the number of entries.
func (t ptree[V]) len() int { return t.size }

// get returns the value stored under k.
func (t ptree[V]) get(k uint64) (V, bool) {
	n := t.root
	if n == nil {
		if t.size == 1 && t.k1 == k {
			return t.v1, true
		}
		var zero V
		return zero, false
	}
	if k>>t.shift>>ptBits != 0 {
		var zero V
		return zero, false
	}
	for shift := t.shift; ; shift -= ptBits {
		pos, ok := n.slot((k >> shift) & ptMask)
		if !ok {
			var zero V
			return zero, false
		}
		if shift == 0 {
			return n.vals[pos], true
		}
		n = n.kids[pos]
	}
}

// with returns a tree that additionally maps k to v.
func (t ptree[V]) with(k uint64, v V) ptree[V] { return t.withO(k, v, nil) }

// withO is with under an ownership token: nodes owned by a non-nil o
// are mutated in place, everything else is path-copied (and the copy
// stamped with o).
func (t ptree[V]) withO(k uint64, v V, o *ptOwner) ptree[V] {
	if t.root == nil {
		if t.size == 0 || t.k1 == k {
			return ptree[V]{size: 1, k1: k, v1: v}
		}
		// A second key: the inline entry moves into nodes first.
		t = ptree[V]{}.withNode(t.k1, t.v1, o)
	}
	return t.withNode(k, v, o)
}

// withNode adds k to the node form of the tree; an empty tree gets a
// root just tall enough for k.
func (t ptree[V]) withNode(k uint64, v V, o *ptOwner) ptree[V] {
	if t.root == nil {
		t.shift = 0
	}
	// Grow the root until k is addressable (a shift of 60 covers all
	// 64 bits).
	for k>>t.shift>>ptBits != 0 {
		if t.root != nil {
			t.root = &ptNode[V]{kids: []*ptNode[V]{t.root}, present: 1, owner: o}
		}
		t.shift += ptBits
	}
	root, added := ptWith(t.root, t.shift, k, v, o)
	nt := ptree[V]{root: root, shift: t.shift, size: t.size}
	if added {
		nt.size++
	}
	return nt
}

// ptWith path-copies (or, when owned, edits) the nodes from n down to
// k's leaf. A nil n materializes a fresh subtree.
func ptWith[V any](n *ptNode[V], shift uint, k uint64, v V, o *ptOwner) (*ptNode[V], bool) {
	i := (k >> shift) & ptMask
	pos, ok := n.slot(i)
	if ok {
		c := n.own(o)
		if shift == 0 {
			c.vals[pos] = v
			return c, false
		}
		child, added := ptWith(c.kids[pos], shift-ptBits, k, v, o)
		c.kids[pos] = child
		return c, added
	}
	// A new slot: owned arrays grow in place, anything else is copied
	// once, into exact-size arrays.
	inPlace := n.editable(o)
	c := n
	if !inPlace {
		c = &ptNode[V]{owner: o}
		if n != nil {
			c.kids, c.vals, c.present = n.kids, n.vals, n.present
		}
	}
	if shift == 0 {
		c.vals = insertAt(c.vals, pos, v, inPlace)
	} else {
		child, _ := ptWith(nil, shift-ptBits, k, v, o)
		c.kids = insertAt(c.kids, pos, child, inPlace)
	}
	c.present |= 1 << i
	return c, true
}

// own returns n itself when o owns it, else a copy of n stamped with
// o whose arrays are fresh copies of n's.
func (n *ptNode[V]) own(o *ptOwner) *ptNode[V] {
	if n.editable(o) {
		return n
	}
	return &ptNode[V]{kids: slices.Clone(n.kids), vals: slices.Clone(n.vals), present: n.present, owner: o}
}

// insertAt returns s with x inserted at pos: in s's own array when
// inPlace (it belongs to an owned node), else in a new exact-size one.
func insertAt[T any](s []T, pos int, x T, inPlace bool) []T {
	if inPlace {
		return slices.Insert(s, pos, x)
	}
	c := make([]T, len(s)+1)
	copy(c, s[:pos])
	c[pos] = x
	copy(c[pos+1:], s[pos:])
	return c
}

// removeAt returns s without the element at pos, in place or in a new
// exact-size array as insertAt does.
func removeAt[T any](s []T, pos int, inPlace bool) []T {
	if inPlace {
		return slices.Delete(s, pos, pos+1)
	}
	c := make([]T, len(s)-1)
	copy(c, s[:pos])
	copy(c[pos:], s[pos+1:])
	return c
}

// without returns a tree with k removed (a no-op if absent).
func (t ptree[V]) without(k uint64) ptree[V] { return t.withoutO(k, nil) }

// withoutO is without under an ownership token (see withO). Emptied
// nodes are dropped, and a tree left with one entry moves it inline.
func (t ptree[V]) withoutO(k uint64, o *ptOwner) ptree[V] {
	if _, ok := t.get(k); !ok {
		return t
	}
	if t.root == nil || t.size == 2 {
		// One entry is left (or none): it is the other one, inline.
		var rest ptree[V]
		t.ascend(func(rk uint64, rv V) bool {
			if rk != k {
				rest = ptree[V]{size: 1, k1: rk, v1: rv}
			}
			return true
		})
		return rest
	}
	return ptree[V]{root: ptWithout(t.root, t.shift, k, o), shift: t.shift, size: t.size - 1}
}

// ptWithout removes k, which must be present, below n. It returns nil
// when n is left empty.
func ptWithout[V any](n *ptNode[V], shift uint, k uint64, o *ptOwner) *ptNode[V] {
	i := (k >> shift) & ptMask
	pos, _ := n.slot(i)
	if shift > 0 {
		if child := ptWithout(n.kids[pos], shift-ptBits, k, o); child != nil {
			c := n.own(o)
			c.kids[pos] = child
			return c
		}
	}
	// Drop slot i: k's value in a leaf, an emptied child in an inner
	// node.
	if n.present == 1<<i {
		return nil
	}
	inPlace := n.editable(o)
	c := n
	if !inPlace {
		c = &ptNode[V]{kids: n.kids, vals: n.vals, owner: o}
	}
	if shift == 0 {
		c.vals = removeAt(c.vals, pos, inPlace)
	} else {
		c.kids = removeAt(c.kids, pos, inPlace)
	}
	c.present = n.present &^ (1 << i)
	return c
}

// ascend visits entries in ascending key order; fn returning false
// stops the walk.
func (t ptree[V]) ascend(fn func(k uint64, v V) bool) {
	if t.root != nil {
		ptAscend(t.root, t.shift, 0, fn)
	} else if t.size == 1 {
		fn(t.k1, t.v1)
	}
}

func ptAscend[V any](n *ptNode[V], shift uint, prefix uint64, fn func(k uint64, v V) bool) bool {
	pos := 0
	for p := n.present; p != 0; p &= p - 1 {
		k := prefix | uint64(bits.TrailingZeros32(p))<<shift
		if shift == 0 {
			if !fn(k, n.vals[pos]) {
				return false
			}
		} else if !ptAscend(n.kids[pos], shift-ptBits, k, fn) {
			return false
		}
		pos++
	}
	return true
}

// idset is a persistent set of row ids (the posting list of one
// secondary-index key).
type idset = ptree[struct{}]

// ---- index keys and the persistent index map ----------------------

// ixKey is one index key as keyOf classifies it: a single INTEGER
// value is exact and keys by the zigzag code of the integer; any other
// tuple keys by its type-tagged encoding.
type ixKey struct {
	enc   string
	code  uint64
	exact bool
}

// keyOf classifies a key tuple. It partitions exactly as encodeKey
// does: a single INTEGER is the only exact class, so Int(1),
// Float(1), String_("1"), NULL and every composite tuple stay
// distinct keys, now split across the two tries of a pmap.
func keyOf(vals []Value) ixKey {
	if len(vals) == 1 && vals[0].Kind == KInt {
		i := vals[0].I
		return ixKey{code: uint64(i<<1 ^ i>>63), exact: true}
	}
	return ixKey{enc: encodeKey(vals)}
}

// pmHashBits bounds the hash key space of a pmap's hashed trie, so it
// stays at most pmHashBits/ptBits levels deep (four, for 20 bits);
// collisions land in buckets. Lock-shard routing (shard.go) reads the
// top bits of the same hash, for every key kind.
const pmHashBits = 20

// pmHash is FNV-1a folded to pmHashBits bits.
func pmHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return (h ^ h>>pmHashBits ^ h>>(2*pmHashBits)) & (1<<pmHashBits - 1)
}

type pmEntry[V any] struct {
	key string
	val V
}

// pmap is a persistent index map keyed by ixKey. Exact keys live in
// ints, keyed by their code, with no string, hash or bucket; the rest
// live in hashed, a trie of collision buckets keyed by pmHash of the
// encoding. The zero value is empty; all mutating operations return a
// new map sharing structure.
type pmap[V any] struct {
	ints   ptree[V]
	hashed ptree[[]pmEntry[V]]
	// n counts the entries of hashed (its trie counts buckets).
	n int
}

// len returns the number of entries.
func (m pmap[V]) len() int { return m.ints.len() + m.n }

// get returns the value stored under key.
func (m pmap[V]) get(key ixKey) (V, bool) {
	if key.exact {
		return m.ints.get(key.code)
	}
	if bucket, ok := m.hashed.get(pmHash(key.enc)); ok {
		for _, e := range bucket {
			if e.key == key.enc {
				return e.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// with returns a map that additionally maps key to v.
func (m pmap[V]) with(key ixKey, v V) pmap[V] { return m.withO(key, v, nil) }

// withO is with under an ownership token (see ptree.withO).
func (m pmap[V]) withO(key ixKey, v V, o *ptOwner) pmap[V] {
	if key.exact {
		m.ints = m.ints.withO(key.code, v, o)
		return m
	}
	h := pmHash(key.enc)
	bucket, _ := m.hashed.get(h)
	nb := make([]pmEntry[V], 0, len(bucket)+1)
	added := true
	for _, e := range bucket {
		if e.key == key.enc {
			added = false
			continue
		}
		nb = append(nb, e)
	}
	nb = append(nb, pmEntry[V]{key: key.enc, val: v})
	m.hashed = m.hashed.withO(h, nb, o)
	if added {
		m.n++
	}
	return m
}

// without returns a map with key removed (a no-op if absent).
func (m pmap[V]) without(key ixKey) pmap[V] { return m.withoutO(key, nil) }

// withoutO is without under an ownership token (see ptree.withO).
func (m pmap[V]) withoutO(key ixKey, o *ptOwner) pmap[V] {
	if key.exact {
		m.ints = m.ints.withoutO(key.code, o)
		return m
	}
	h := pmHash(key.enc)
	bucket, ok := m.hashed.get(h)
	if !ok {
		return m
	}
	found := false
	nb := make([]pmEntry[V], 0, len(bucket))
	for _, e := range bucket {
		if e.key == key.enc {
			found = true
			continue
		}
		nb = append(nb, e)
	}
	if !found {
		return m
	}
	if len(nb) == 0 {
		m.hashed = m.hashed.withoutO(h, o)
	} else {
		m.hashed = m.hashed.withO(h, nb, o)
	}
	m.n--
	return m
}
