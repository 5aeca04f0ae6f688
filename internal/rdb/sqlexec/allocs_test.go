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
