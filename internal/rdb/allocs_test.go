//go:build !race

// The race detector instruments allocations and adds shadow memory, so
// allocation counts and heap figures only mean something without it.

package rdb

import (
	"fmt"
	"runtime"
	"testing"
)

// seedFigure1 fills the Figure 1 schema the way the point_mix
// benchmark sizes it: the shared pools, then authors, publications
// and publication_author links, through Tx.Insert in 500-row
// transactions.
func seedFigure1(t testing.TB, db *Database, authors, pubs, links int) {
	t.Helper()
	insertAll := func(n int, table string, row func(i int) map[string]Value) {
		for lo := 1; lo <= n; lo += 500 {
			if err := db.Update(func(tx *Tx) error {
				for i := lo; i < lo+500 && i <= n; i++ {
					if err := tx.Insert(table, row(i)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatalf("seeding %s: %v", table, err)
			}
		}
	}
	insertAll(20, "team", func(i int) map[string]Value {
		return map[string]Value{"id": Int(int64(i)), "name": String_(fmt.Sprint("Team ", i)), "code": String_(fmt.Sprint("T", i))}
	})
	insertAll(10, "publisher", func(i int) map[string]Value {
		return map[string]Value{"id": Int(int64(i)), "name": String_(fmt.Sprint("Publisher ", i))}
	})
	insertAll(6, "pubtype", func(i int) map[string]Value {
		return map[string]Value{"id": Int(int64(i)), "type": String_(fmt.Sprint("type", i))}
	})
	insertAll(authors, "author", func(i int) map[string]Value {
		return map[string]Value{
			"id": Int(int64(i)), "title": String_("Dr"), "firstname": String_("Ada"),
			"lastname": String_(fmt.Sprint("Lovelace", i)), "email": String_(fmt.Sprintf("mailto:a%d@example.org", i)),
			"team": Int(int64(i%20 + 1)),
		}
	})
	insertAll(pubs, "publication", func(i int) map[string]Value {
		return map[string]Value{
			"id": Int(int64(i)), "title": String_(fmt.Sprint("Updating Relational Data ", i)),
			"year": Int(int64(2000 + i%10)), "type": Int(int64(i%6 + 1)), "publisher": Int(int64(i%10 + 1)),
		}
	})
	insertAll(links, "publication_author", func(i int) map[string]Value {
		return map[string]Value{"id": Int(int64(i)), "publication": Int(int64(i%pubs + 1)), "author": Int(int64(i*7%authors + 1))}
	})
}

// liveHeap returns the live heap bytes and objects after two forced
// collections (the second one finishes sweeping what the first freed).
func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// TestStorageFootprint gates what the store keeps in memory per row on
// point_mix's database: 50,000 authors, 15,000 publications and 15,000
// links. The indexes used to dominate: every key was an encoded string
// in a hashed trie with a bucket slice, most trie leaves held one
// entry in 32 slots, and every one-row posting list was a three-node
// trie. That cost about 2.0 KB and 11.9 heap objects per row (153.9
// MiB and 949k objects for this database on go1.24). With
// bitmap-compressed nodes, exact INTEGER keys and inline one-entry
// sets it came to about 407 B and 3.4 objects per row (31.0 MiB and
// 272k objects), and the rows themselves are most of what is left.
// Since a Value is 32 bytes, not 48 (DOUBLE and BOOLEAN live in I),
// it is about 323 B and 3.4 objects per row (24.6 MiB and 272k
// objects). The ceilings sit about 10% above that.
func TestStorageFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("seeds 80,000 rows")
	}
	const authors, pubs, links = 50_000, 15_000, 15_000
	baseBytes, baseObjects := liveHeap()
	db := paperSchema(t)
	seedFigure1(t, db, authors, pubs, links)
	bytes, objects := liveHeap()
	runtime.KeepAlive(db)
	rows := float64(db.TotalRows())
	perRowBytes := (float64(bytes) - float64(baseBytes)) / rows
	perRowObjects := (float64(objects) - float64(baseObjects)) / rows
	t.Logf("%.0f rows: %.1f MiB live, %d objects; %.0f B and %.2f objects per row",
		rows, (float64(bytes)-float64(baseBytes))/(1<<20), objects-baseObjects, perRowBytes, perRowObjects)
	const maxBytesPerRow, maxObjectsPerRow = 355, 3.75
	if perRowBytes > maxBytesPerRow {
		t.Errorf("%.0f live bytes per row, ceiling %d", perRowBytes, maxBytesPerRow)
	}
	if perRowObjects > maxObjectsPerRow {
		t.Errorf("%.2f heap objects per row, ceiling %v", perRowObjects, maxObjectsPerRow)
	}
}

// TestLookupPKAllocs gates the point probe every keyed request makes:
// a single INTEGER primary-key lookup in a View allocates nothing. The
// key is exact, so no encoded key string is built, and a read
// transaction holds no keyed lock whose shard would need one (it cost
// 4 allocations while the index keyed on encoded strings).
func TestLookupPKAllocs(t *testing.T) {
	db := paperSchema(t)
	seedFigure1(t, db, 1000, 0, 0)
	key := []Value{Int(421)}
	if err := db.View(func(tx *Tx) error {
		allocs := testing.AllocsPerRun(200, func() {
			if _, row, ok, err := tx.LookupPK("author", key); err != nil || !ok || row[0].I != 421 {
				t.Fatalf("LookupPK(421) = %v, %v, %v", row, ok, err)
			}
		})
		if allocs != 0 {
			t.Errorf("LookupPK: %v allocs, want 0", allocs)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAllocs gates what one checkpoint of point_mix's
// database allocates: 50,000 authors, 15,000 publications and 15,000
// links, every table dirty. Each table image streams from the
// immutable table version into its file through one fixed 64 KiB
// buffer, so the allocation is bounded by the buffer and a little
// per-table bookkeeping, not by the table's size. Building each image
// in one growing byte slice instead allocated about 5x the image:
// 20.0 MiB for this database's 3.9 MB of table files on go1.24, and
// 0.09 MiB streaming.
func TestCheckpointAllocs(t *testing.T) {
	db, _ := mustOpen(t, t.TempDir(), Options{CheckpointBytes: -1})
	createPaperSchema(t, db)
	seedFigure1(t, db, 50_000, 15_000, 15_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	tables := len(db.TableNames())
	got := after.TotalAlloc - before.TotalAlloc
	ceiling := uint64(1<<20 + tables*128<<10)
	t.Logf("one checkpoint of %d rows in %d tables wrote %d bytes and allocated %.2f MiB (ceiling %.2f MiB)",
		db.TotalRows(), tables, db.DurabilityStats().CheckpointBytes, float64(got)/(1<<20), float64(ceiling)/(1<<20))
	if got > ceiling {
		t.Errorf("one checkpoint allocated %d bytes, ceiling %d", got, ceiling)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
