package rdb

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// ptreeKey draws a uint64 key for the ptree model test: mostly from a
// dense low range (several leaves and levels), sometimes from the
// extremes of the 64-bit key space, which force the deepest root.
func ptreeKey(rng *rand.Rand) uint64 {
	switch rng.Intn(10) {
	case 0:
		return []uint64{0, 1, 2, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, 1<<32 + 7}[rng.Intn(7)]
	case 1:
		return uint64(rng.Int63())
	}
	return uint64(rng.Intn(5000))
}

// TestPtreeAgainstReferenceMap drives randomized with/without/get
// against a plain map, in transactions: each run of operations edits
// under one owner token, and a savepoint captures the current version
// and renews the token, as Tx does. Every captured version must stay
// intact (persistence) and iterate in ascending key order.
func TestPtreeAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var cur ptree[int]
	ref := make(map[uint64]int)
	type gen struct {
		t   ptree[int]
		ref map[uint64]int
	}
	var history []gen
	capture := func() {
		history = append(history, gen{t: cur, ref: maps.Clone(ref)})
	}
	var o *ptOwner // nil: plain path copying
	for i := 0; i < 6000; i++ {
		k := ptreeKey(rng)
		if rng.Intn(3) == 0 {
			cur = cur.withoutO(k, o)
			delete(ref, k)
		} else {
			cur = cur.withO(k, i, o)
			ref[k] = i
		}
		switch {
		case i%500 == 0:
			capture()
			o = newOwner()
		case rng.Intn(200) == 0:
			o = nil // a run of persistent edits
		case rng.Intn(50) == 0:
			capture()      // a savepoint: the captured version is frozen...
			o = newOwner() // ...because the token is renewed
		}
		if cur.len() == 1 && cur.root != nil {
			t.Fatalf("step %d: a one-entry tree has nodes", i)
		}
	}
	capture()
	for gi, g := range history {
		checkPtree(t, g.t, g.ref, fmt.Sprintf("generation %d", gi))
	}
}

func checkPtree(t *testing.T, tr ptree[int], ref map[uint64]int, label string) {
	t.Helper()
	if tr.len() != len(ref) {
		t.Fatalf("%s: len = %d, want %d", label, tr.len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tr.get(k); !ok || got != want {
			t.Fatalf("%s: get(%d) = %d,%v, want %d", label, k, got, ok, want)
		}
	}
	for _, k := range []uint64{3, math.MaxUint64 - 2, 1<<63 + 1} {
		if _, in := ref[k]; !in {
			if got, ok := tr.get(k); ok {
				t.Fatalf("%s: get(%d) = %d on an absent key", label, k, got)
			}
		}
	}
	var last uint64
	n := 0
	tr.ascend(func(k uint64, v int) bool {
		if n > 0 && k <= last {
			t.Fatalf("%s: iteration not ascending: %d after %d", label, k, last)
		}
		last = k
		if want, ok := ref[k]; !ok || v != want {
			t.Fatalf("%s: ascend(%d) = %d, want %d,%v", label, k, v, want, ok)
		}
		n++
		return true
	})
	if n != len(ref) {
		t.Fatalf("%s: ascend visited %d, want %d", label, n, len(ref))
	}
}

// TestPtreeInlineTransitions walks a tree through inline -> node ->
// inline -> empty, under an owner token and without one, and checks
// that the versions left behind keep their entries.
func TestPtreeInlineTransitions(t *testing.T) {
	for _, o := range []*ptOwner{nil, newOwner()} {
		var empty ptree[string]
		one := empty.withO(math.MaxUint64, "max", o)
		if one.root != nil || one.len() != 1 {
			t.Fatalf("one entry: root %v, len %d; want inline", one.root, one.len())
		}
		replaced := one.withO(math.MaxUint64, "MAX", o)
		two := replaced.withO(0, "zero", o)
		if two.root == nil || two.len() != 2 {
			t.Fatalf("two entries: root %v, len %d; want nodes", two.root, two.len())
		}
		back := two.withoutO(math.MaxUint64, o)
		if back.root != nil || back.len() != 1 {
			t.Fatalf("removing to one entry: root %v, len %d; want inline", back.root, back.len())
		}
		gone := back.withoutO(0, o).withoutO(0, o)
		if gone.root != nil || gone.len() != 0 {
			t.Fatalf("removing the last entry: len %d", gone.len())
		}
		for _, c := range []struct {
			tr   ptree[string]
			want map[uint64]string
		}{
			{empty, map[uint64]string{}},
			{one, map[uint64]string{math.MaxUint64: "max"}},
			{replaced, map[uint64]string{math.MaxUint64: "MAX"}},
			{two, map[uint64]string{math.MaxUint64: "MAX", 0: "zero"}},
			{back, map[uint64]string{0: "zero"}},
			{gone, map[uint64]string{}},
		} {
			if c.tr.len() != len(c.want) {
				t.Fatalf("owner %v: len %d, want %v", o != nil, c.tr.len(), c.want)
			}
			for k, v := range c.want {
				if got, ok := c.tr.get(k); !ok || got != v {
					t.Fatalf("owner %v: get(%d) = %q,%v, want %q", o != nil, k, got, ok, v)
				}
			}
		}
	}
}

// pmapKeys are the key tuples the pmap model tests draw from: dense
// VARCHAR keys that collide in the folded hash, the INTEGER extremes
// that span the exact trie's key space, and the values of other kinds
// that encode the same digits, which must stay distinct keys.
func pmapKeys() [][]Value {
	var keys [][]Value
	for i := 0; i < 400; i++ {
		keys = append(keys, []Value{String_(string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i%7)))})
	}
	for i := int64(-40); i < 300; i += 3 {
		keys = append(keys, []Value{Int(i)})
	}
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1} {
		keys = append(keys, []Value{Int(i)})
	}
	return append(keys,
		[]Value{Float(1)}, []Value{Float(0)}, []Value{Float(math.Copysign(0, -1))},
		[]Value{String_("1")}, []Value{String_("i1")},
		[]Value{Null}, []Value{Bool(true)}, []Value{String_("")},
		[]Value{Int(1), Int(2)}, []Value{Int(1), Null}, []Value{String_("1"), Int(2)},
	)
}

// TestPmapAgainstReferenceMap does the same for the index map, keyed
// by keyOf: the reference map is keyed by encodeKey, so the two tries
// together must partition keys exactly as the encoding does. Edits
// run under owner tokens renewed at savepoints, and every captured
// version is re-checked at the end.
func TestPmapAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := pmapKeys()
	for _, a := range keys {
		for _, b := range keys {
			if sameIx, sameEnc := keyOf(a) == keyOf(b), encodeKey(a) == encodeKey(b); sameIx != sameEnc {
				t.Fatalf("keyOf(%v) == keyOf(%v) is %v, encodeKey equality is %v", a, b, sameIx, sameEnc)
			}
		}
	}
	var cur pmap[int]
	ref := make(map[string]int)
	type gen struct {
		m   pmap[int]
		ref map[string]int
	}
	var history []gen
	var o *ptOwner
	for i := 0; i < 8000; i++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(4) == 0 {
			cur = cur.withoutO(keyOf(k), o)
			delete(ref, encodeKey(k))
		} else {
			cur = cur.withO(keyOf(k), i, o)
			ref[encodeKey(k)] = i
		}
		if i%1000 == 0 || rng.Intn(100) == 0 {
			history = append(history, gen{m: cur, ref: maps.Clone(ref)})
			o = newOwner()
		}
	}
	history = append(history, gen{m: cur, ref: ref})
	for gi, g := range history {
		if g.m.len() != len(g.ref) {
			t.Fatalf("generation %d: len = %d, want %d", gi, g.m.len(), len(g.ref))
		}
		for _, k := range keys {
			got, ok := g.m.get(keyOf(k))
			want, wantOK := g.ref[encodeKey(k)]
			if ok != wantOK || got != want {
				t.Fatalf("generation %d: get(%v) = %d,%v, want %d,%v", gi, k, got, ok, want, wantOK)
			}
		}
	}
}

// FuzzIndexOps runs byte-coded idxAdd/idxRemove sequences on a
// secondary index against a map of sets. Each op is three bytes: the
// operation, the key (from pmapKeys) and the row id. Savepoint ops
// capture the index and renew the owner token; every captured version
// must still match its reference at the end.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 5, 0, 1, 5, 0, 2})
	f.Add([]byte{0, 0x80, 7, 8, 0, 0, 0, 0x80, 9, 5, 0x80, 7, 9, 0, 0, 5, 0x80, 9})
	keys := pmapKeys()
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*256 {
			ops = ops[:3*256]
		}
		var idx pmap[idset]
		ref := map[string]map[int64]bool{}
		type gen struct {
			idx pmap[idset]
			ref map[string]map[int64]bool
		}
		var history []gen
		capture := func() {
			c := make(map[string]map[int64]bool, len(ref))
			for k, set := range ref {
				c[k] = maps.Clone(set)
			}
			history = append(history, gen{idx: idx, ref: c})
		}
		o := newOwner()
		touched := map[int]bool{}
		for len(ops) >= 3 {
			ki := int(ops[1]) * len(keys) / 256
			op, key := ops[0]%10, keys[ki]
			touched[ki] = true
			id := int64(ops[2])
			if ops[2] >= 0xf0 {
				id = int64(ops[2]) << 40 // a second trie level far away
			}
			ops = ops[3:]
			enc := encodeKey(key)
			switch {
			case op < 5:
				idx = idxAdd(idx, keyOf(key), id, o)
				if ref[enc] == nil {
					ref[enc] = map[int64]bool{}
				}
				ref[enc][id] = true
			case op < 8:
				idx = idxRemove(idx, keyOf(key), id, o)
				delete(ref[enc], id)
				if len(ref[enc]) == 0 {
					delete(ref, enc)
				}
			case op == 8:
				capture()
				o = newOwner()
			default:
				o = nil
			}
		}
		capture()
		for gi, g := range history {
			if g.idx.len() != len(g.ref) {
				t.Fatalf("generation %d: %d keys, want %d", gi, g.idx.len(), len(g.ref))
			}
			for ki := range touched {
				k := keys[ki]
				set, ok := g.idx.get(keyOf(k))
				want := g.ref[encodeKey(k)]
				if ok != (len(want) > 0) || set.len() != len(want) {
					t.Fatalf("generation %d: key %v holds %d ids (present %v), want %d", gi, k, set.len(), ok, len(want))
				}
				set.ascend(func(id uint64, _ struct{}) bool {
					if !want[int64(id)] {
						t.Fatalf("generation %d: key %v holds id %d, want %v", gi, k, id, want)
					}
					return true
				})
			}
		}
	})
}

// TestSnapshotReadersNotBlockedByWriters is the MVCC contract: a View
// completes — against the last committed state — while a writer holds
// the whole-database write lock mid-transaction. Under the previous
// lock-per-table reader design this deadlocked until commit.
func TestSnapshotReadersNotBlockedByWriters(t *testing.T) {
	db := paperSchema(t)
	if err := db.Update(func(tx *Tx) error {
		return tx.Insert("team", map[string]Value{"id": Int(1), "name": String_("A"), "code": String_("a")})
	}); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin() // exclusive lock on every table
	if err := tx.Insert("team", map[string]Value{"id": Int(2), "name": String_("B"), "code": String_("b")}); err != nil {
		t.Fatal(err)
	}

	done := make(chan int, 1)
	go func() {
		var n int
		db.View(func(vtx *Tx) error {
			vtx.Scan("team", func(int64, []Value) bool { n++; return true })
			return nil
		})
		done <- n
	}()
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("reader saw %d committed rows mid-write, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot reader blocked behind an open write transaction")
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.RowCount("team"); n != 2 {
		t.Fatalf("rows after commit = %d, want 2", n)
	}
}

// TestViewPinsSnapshot: a View opened before a commit keeps seeing the
// pre-commit state for its whole lifetime.
func TestViewPinsSnapshot(t *testing.T) {
	db := paperSchema(t)
	db.Update(func(tx *Tx) error {
		return tx.Insert("team", map[string]Value{"id": Int(1), "name": String_("A"), "code": String_("a")})
	})
	release := make(chan struct{})
	counted := make(chan int, 2)
	go db.View(func(tx *Tx) error {
		n := 0
		tx.Scan("team", func(int64, []Value) bool { n++; return true })
		counted <- n
		<-release // a commit happens while this View is open
		n = 0
		tx.Scan("team", func(int64, []Value) bool { n++; return true })
		counted <- n
		return nil
	})
	if n := <-counted; n != 1 {
		t.Fatalf("first scan saw %d rows, want 1", n)
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.Insert("team", map[string]Value{"id": Int(2), "name": String_("B"), "code": String_("b")})
	}); err != nil {
		t.Fatal(err)
	}
	close(release)
	if n := <-counted; n != 1 {
		t.Fatalf("open View observed a concurrent commit: saw %d rows, want the pinned 1", n)
	}
	db.View(func(tx *Tx) error {
		n := 0
		tx.Scan("team", func(int64, []Value) bool { n++; return true })
		if n != 2 {
			t.Fatalf("fresh View saw %d rows, want 2", n)
		}
		return nil
	})
}

// TestSavepointRollbackTo exercises the per-operation atomicity the
// group-commit scheduler builds on: several logical ops in one
// transaction, with a failed middle op rolled back to its savepoint.
func TestSavepointRollbackTo(t *testing.T) {
	db := paperSchema(t)
	tx := db.BeginWrite("team")
	if err := tx.Insert("team", map[string]Value{"id": Int(1), "name": String_("A"), "code": String_("a")}); err != nil {
		t.Fatal(err)
	}
	sp := tx.Savepoint()
	if err := tx.Insert("team", map[string]Value{"id": Int(2), "name": String_("B"), "code": String_("b")}); err != nil {
		t.Fatal(err)
	}
	// Duplicate key: the failed "operation" rolls back to its savepoint,
	// taking the id=2 insert with it but keeping id=1.
	if err := tx.Insert("team", map[string]Value{"id": Int(1), "name": String_("dup"), "code": String_("x")}); err == nil {
		t.Fatal("duplicate primary key must fail")
	}
	tx.RollbackTo(sp)
	if err := tx.Insert("team", map[string]Value{"id": Int(3), "name": String_("C"), "code": String_("c")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		for id, want := range map[int64]bool{1: true, 2: false, 3: true} {
			_, _, found, _ := tx.LookupPK("team", []Value{Int(id)})
			if found != want {
				t.Errorf("team id=%d found=%v, want %v", id, found, want)
			}
		}
		return nil
	})
}

// TestUpdateDeclaredWriteSet: Update with declared tables enforces
// lock coverage like BeginWrite, and commits like before.
func TestUpdateDeclaredWriteSet(t *testing.T) {
	db := lockTestDB(t)
	err := db.Update(func(tx *Tx) error {
		return tx.Insert("parent", map[string]Value{"id": Int(1), "name": String_("p")})
	}, "parent")
	if err != nil {
		t.Fatal(err)
	}
	// Writing outside the declared set fails with a LockError and the
	// whole function's work rolls back.
	err = db.Update(func(tx *Tx) error {
		if err := tx.Insert("parent", map[string]Value{"id": Int(2), "name": String_("q")}); err != nil {
			return err
		}
		return tx.Insert("loner", map[string]Value{"id": Int(1), "v": String_("x")})
	}, "parent")
	if _, ok := err.(*LockError); !ok {
		t.Fatalf("want LockError for undeclared table, got %v", err)
	}
	if n, _ := db.RowCount("parent"); n != 1 {
		t.Fatalf("failed Update leaked rows: parent = %d, want 1", n)
	}
	// Disjoint declared write sets commit in parallel without racing.
	var wg sync.WaitGroup
	for w, tbl := range []string{"parent", "loner"} {
		wg.Add(1)
		go func(w int, tbl string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				db.Update(func(tx *Tx) error {
					return tx.Insert(tbl, map[string]Value{"id": Int(int64(100 + w*1000 + i))})
				}, tbl)
			}
		}(w, tbl)
	}
	wg.Wait()
	if n, _ := db.RowCount("loner"); n != 50 {
		t.Fatalf("loner rows = %d, want 50", n)
	}
}

// TestSnapshotVersionAdvances: the published version moves on every
// data commit and DDL, and read-only work leaves it unchanged.
func TestSnapshotVersionAdvances(t *testing.T) {
	db := paperSchema(t)
	v0 := db.SnapshotVersion()
	db.Update(func(tx *Tx) error {
		return tx.Insert("team", map[string]Value{"id": Int(1), "name": String_("A"), "code": String_("a")})
	})
	v1 := db.SnapshotVersion()
	if v1 != v0+1 {
		t.Fatalf("version after commit = %d, want %d", v1, v0+1)
	}
	// A rolled-back transaction publishes nothing.
	tx := db.Begin()
	tx.Insert("team", map[string]Value{"id": Int(2), "name": String_("B"), "code": String_("b")})
	tx.Rollback()
	db.View(func(*Tx) error { return nil })
	if v := db.SnapshotVersion(); v != v1 {
		t.Fatalf("version after rollback+view = %d, want %d", v, v1)
	}
}
