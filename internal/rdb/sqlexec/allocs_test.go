//go:build !race

// The race detector instruments allocations, so allocation counts only
// mean something without it.

package sqlexec

import (
	"fmt"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

// TestSelectFuncScanAllocs gates the per-row cost of a streamed scan:
// the shape the SPARQL translator emits for a whole-class SELECT (three
// IS NOT NULL predicates, four projected columns) must allocate nothing
// per row — conditions and projection read bound column slots, and the
// cursor projects every row into its one reused buffer. The gate is
// the difference between a 2,000-row and a 1,000-row table, so the
// per-statement planning cost cancels out.
func TestSelectFuncScanAllocs(t *testing.T) {
	stmt, err := sqlparser.ParseStatement(`SELECT t0.id, t0.firstname, t0.lastname, t0.email FROM author t0 ` +
		`WHERE t0.firstname IS NOT NULL AND t0.lastname IS NOT NULL AND t0.email IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(sqlparser.Select)
	allocs := func(rows int) float64 {
		db := paperDB(t)
		if err := db.Update(func(tx *rdb.Tx) error {
			for i := 1; i <= rows; i++ {
				if err := tx.Insert("author", map[string]rdb.Value{
					"id":        rdb.Int(int64(i)),
					"firstname": rdb.String_("F"),
					"lastname":  rdb.String_(fmt.Sprint("L", i)),
					"email":     rdb.String_(fmt.Sprintf("a%d@example.org", i)),
				}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		head := func([]string) error { return nil }
		n := 0
		row := func([]rdb.Value) (bool, error) { n++; return true, nil }
		a := testing.AllocsPerRun(20, func() {
			if err := db.View(func(tx *rdb.Tx) error { return SelectFunc(tx, sel, head, row) }); err != nil {
				t.Fatal(err)
			}
		})
		if n != 21*rows { // AllocsPerRun adds one warm-up run
			t.Fatalf("streamed %d rows, want %d", n, 21*rows)
		}
		return a
	}
	if perRows := allocs(2000) - allocs(1000); perRows != 0 {
		t.Errorf("1,000 extra streamed rows cost %v allocs, want 0", perRows)
	}
}

// TestPreparedRunAllocs gates what preparing buys a point read: a
// repeated Run of a prepared pk probe with its key in a parameter slot
// allocates strictly less than SelectFunc planning and running the
// same literal statement, and stays under a fixed ceiling: the run's
// execution state (1 on go1.24, against 14 for SelectFunc; both were 2
// higher while the storage probe encoded its key as a string).
func TestPreparedRunAllocs(t *testing.T) {
	db := paperDB(t)
	seedJoinData(t, db)
	sel := mustSelect(t, `SELECT id, lastname FROM author WHERE id = 2`)
	slotted, args := parameterize(sel)
	head := func([]string) error { return nil }
	n := 0
	row := func([]rdb.Value) (bool, error) { n++; return true, nil }
	var p *Prepared
	db.View(func(tx *rdb.Tx) (err error) {
		p, err = Prepare(tx, slotted)
		return err
	})
	const runs = 200
	var fresh, prepared float64
	db.View(func(tx *rdb.Tx) error {
		fresh = testing.AllocsPerRun(runs, func() {
			if err := SelectFunc(tx, sel, head, row); err != nil {
				t.Fatal(err)
			}
		})
		prepared = testing.AllocsPerRun(runs, func() {
			if err := p.Run(tx, args, head, row); err != nil {
				t.Fatal(err)
			}
		})
		return nil
	})
	if n != 2*(runs+1) { // AllocsPerRun adds one warm-up run
		t.Fatalf("probes returned %d rows, want %d", n, 2*(runs+1))
	}
	const ceiling = 1
	t.Logf("SelectFunc %v allocs, prepared Run %v allocs", fresh, prepared)
	if prepared >= fresh || prepared > ceiling {
		t.Errorf("prepared Run: %v allocs (SelectFunc %v), must be below SelectFunc and at most %v", prepared, fresh, ceiling)
	}
}

// TestKeyOrderedJoinAllocs gates the key-ordered walk's cost: an ORDER
// BY on a FROM-table column with a LIMIT, over a 4-table join whose
// smallest table would otherwise be placed first, keeps only LIMIT
// outer rows and joins only those, so 4,000 FROM rows may allocate at
// most a small constant more than 1,000. Collecting and replaying the
// whole join, as a reordered plan does, costs 2 allocations per joined
// row.
func TestKeyOrderedJoinAllocs(t *testing.T) {
	sel := mustSelect(t, pubJoinSelect+` ORDER BY p.title LIMIT 10`)
	allocs := func(rows int) float64 {
		db := paperDB(t)
		seedPubJoin(t, db, rows)
		head := func([]string) error { return nil }
		n := 0
		row := func([]rdb.Value) (bool, error) { n++; return true, nil }
		a := testing.AllocsPerRun(20, func() {
			if err := db.View(func(tx *rdb.Tx) error { return SelectFunc(tx, sel, head, row) }); err != nil {
				t.Fatal(err)
			}
		})
		if n != 21*10 { // AllocsPerRun adds one warm-up run
			t.Fatalf("streamed %d rows, want %d", n, 21*10)
		}
		return a
	}
	small, large := allocs(1000), allocs(4000)
	t.Logf("1,000 FROM rows: %v allocs, 4,000: %v", small, large)
	if large-small > 2 {
		t.Errorf("3,000 extra FROM rows cost %v allocs, want at most 2", large-small)
	}
}
