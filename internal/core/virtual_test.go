package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
)

// linkRowsMediator seeds the paper data plus n publications by
// author6, each with its publication_author link row, and a second
// creator on pub12, so pub12's subject match reads two link rows
// among n+2.
func linkRowsMediator(t testing.TB, n int) *Mediator {
	t.Helper()
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	mustExec(t, m, paperPrologue+`INSERT DATA { ex:author7 foaf:family_name "Reif" . ex:pub12 dc:creator ex:author7 . }`)
	if err := m.DB().Update(func(tx *rdb.Tx) error {
		for i := 1000; i < 1000+n; i++ {
			if err := tx.Insert("publication", map[string]rdb.Value{
				"id": rdb.Int(int64(i)), "title": rdb.String_(fmt.Sprint("P", i)), "year": rdb.Int(2009),
			}); err != nil {
				return err
			}
			if err := tx.Insert("publication_author", map[string]rdb.Value{
				"publication": rdb.Int(int64(i)), "author": rdb.Int(6),
			}); err != nil {
				return err
			}
		}
		return nil
	}, "publication", "publication_author"); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSubjectMatchLinkRowsMatchScan pins that a bound-subject match
// reads its link-table triples through the subject column's index with
// exactly the triples, in exactly the order, that filtering a scan of
// the whole link table yields.
func TestSubjectMatchLinkRowsMatchScan(t *testing.T) {
	m := linkRowsMediator(t, 50)
	m.DB().View(func(tx *rdb.Tx) error {
		vg := m.VirtualGraph(tx)
		lt := m.mapping.LinkTables[0]
		for _, subj := range []string{"pub12", "pub1000", "pub1049", "pub99999"} {
			s := rdf.IRI("http://example.org/db/" + subj)
			var scanned, matched []rdf.Triple
			vg.scanLinkTable(lt, func(tr rdf.Triple) bool {
				if tr.S == s {
					scanned = append(scanned, tr)
				}
				return true
			})
			vg.Match(rdf.Triple{S: s, P: lt.Property}, func(tr rdf.Triple) bool {
				matched = append(matched, tr)
				return true
			})
			if !reflect.DeepEqual(matched, scanned) {
				t.Errorf("%s: subject match %v, filtered scan %v", subj, matched, scanned)
			}
			if subj == "pub12" && len(matched) != 2 {
				t.Errorf("pub12 has %d creator triples, want 2", len(matched))
			}
		}
		return nil
	})
}

// TestSubjectMatchCostFlat gates the work of a bound-subject match:
// with the link table probed through its index, matching pub12 costs
// about the same with 10,000 other link rows as with 1,000, where a
// walk of the table costs ten times as much. The per-match time is the
// fastest of several batches, so a busy host only makes it noisier,
// never slower than the walk it guards against.
func TestSubjectMatchCostFlat(t *testing.T) {
	perMatch := func(n int) time.Duration {
		m := linkRowsMediator(t, n)
		best := time.Duration(math.MaxInt64)
		m.DB().View(func(tx *rdb.Tx) error {
			vg := m.VirtualGraph(tx)
			s := rdf.IRI("http://example.org/db/pub12")
			for batch := 0; batch < 7; batch++ {
				start := time.Now()
				for i := 0; i < 50; i++ {
					vg.Match(rdf.Triple{S: s}, func(rdf.Triple) bool { return true })
				}
				best = min(best, time.Since(start)/50)
			}
			return nil
		})
		return best
	}
	small, large := perMatch(1_000), perMatch(10_000)
	t.Logf("%v at 1,000 link rows, %v at 10,000", small, large)
	if large > 3*small+20*time.Microsecond {
		t.Errorf("subject match: %v at 1,000 link rows, %v at 10,000; it must not walk the link table", small, large)
	}
}
