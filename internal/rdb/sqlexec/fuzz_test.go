package sqlexec

import (
	"math"
	"testing"

	"ontoaccess/internal/rdb"
)

// preparedShapes are the parameterized statements
// FuzzPreparedMatchesSelect runs: every literal becomes a parameter
// slot (see parameterize). They cover a pk probe, an FK join, a range
// filter, ORDER BY with LIMIT/OFFSET, a LEFT JOIN with a slotted ON
// conjunct, a projected slot, a slot on both sides of a comparison and
// a key-ordered 4-table join.
var preparedShapes = []string{
	`SELECT id, lastname FROM author WHERE id = 1`,
	`SELECT a.lastname, t.name FROM author a JOIN team t ON a.team = t.id WHERE a.team = 1`,
	`SELECT p.title, a.lastname FROM publication p JOIN publication_author pa ON pa.publication = p.id JOIN author a ON a.id = pa.author WHERE a.id = 1`,
	`SELECT id FROM publication WHERE year > 2008 AND year <= 2010`,
	`SELECT id, email FROM author WHERE lastname <> 'x' ORDER BY email, id LIMIT 2 OFFSET 1`,
	`SELECT a.id, t.name FROM author a LEFT JOIN team t ON a.team = t.id AND t.code = 'SEAL' WHERE a.id >= 2`,
	`SELECT id, 1 FROM team WHERE name LIKE 'S%'`,
	`SELECT id FROM team WHERE 1 = 2 OR id = 3`,
	`SELECT p.title, a.lastname, t.name FROM publication p JOIN publication_author pa ON pa.publication = p.id JOIN author a ON a.id = pa.author JOIN team t ON t.id = a.team ORDER BY p.title LIMIT 2 OFFSET 1`,
}

// FuzzPreparedMatchesSelect feeds random arguments — integers,
// floats, strings, booleans, NULL, out-of-range and non-integral
// numbers — and random LIMIT/OFFSET windows into prepared statements,
// and requires Run to show exactly what SelectFunc shows on the
// literal-substituted statement: columns, rows, order and error.
func FuzzPreparedMatchesSelect(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(2), 0.0, "", uint8(0), int64(1), int16(-1), int16(-1))
	f.Add(uint8(0), uint8(1), int64(0), 2.5, "", uint8(3), int64(0), int16(-1), int16(-1))
	f.Add(uint8(1), uint8(2), int64(0), 0.0, "1", uint8(0), int64(1), int16(1), int16(0))
	f.Add(uint8(3), uint8(1), int64(0), 2008.0, "", uint8(4), int64(2010), int16(-1), int16(-1))
	f.Add(uint8(4), uint8(2), int64(0), 0.0, "Hert", uint8(0), int64(7), int16(3), int16(1))
	f.Add(uint8(5), uint8(2), int64(0), 0.0, "DBTG", uint8(1), int64(0), int16(-1), int16(2))
	f.Add(uint8(6), uint8(0), int64(math.MaxInt64), math.Inf(1), "%", uint8(2), int64(0), int16(0), int16(-1))
	f.Add(uint8(7), uint8(3), int64(0), math.NaN(), "", uint8(0), int64(3), int16(-1), int16(-1))
	f.Add(uint8(8), uint8(0), int64(0), 0.0, "", uint8(0), int64(0), int16(1), int16(2))
	f.Add(uint8(8), uint8(0), int64(0), 0.0, "", uint8(0), int64(0), int16(-1), int16(-1))
	db := paperDB(f)
	seedJoinData(f, db)
	f.Fuzz(func(t *testing.T, shape, k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, limit, offset int16) {
		st, lits := parameterize(mustSelect(t, preparedShapes[int(shape)%len(preparedShapes)]))
		cands := [2]rdb.Value{fuzzArg(k1, i1, f1, s1), fuzzArg(k2, i2, -f1, s1+"%")}
		args := make([]rdb.Value, len(lits))
		for i := range args {
			args[i] = cands[i%2]
		}
		lo, off := int(limit), int(offset)
		if lo < 0 {
			lo = -1
		}
		if off < 0 {
			off = -1
		}
		lit, err := bindParams(st, args)
		if err != nil {
			t.Fatal(err)
		}
		lit.Limit, lit.Offset = lo, off
		db.View(func(tx *rdb.Tx) error {
			p, err := Prepare(tx, st)
			if err != nil {
				t.Fatal(err)
			}
			want := selectFuncResult(tx, lit)
			for run := 1; run <= 2; run++ {
				if got := preparedResult(tx, p.Window(lo, off), nil, args); !sameResult(got, want) {
					t.Fatalf("run %d, args %v, window %d/%d: prepared %+v, SelectFunc %+v", run, args, lo, off, got, want)
				}
			}
			return nil
		})
	})
}

// fuzzArg builds one argument of the class kind selects.
func fuzzArg(kind uint8, i int64, f float64, s string) rdb.Value {
	switch kind % 5 {
	case 0:
		return rdb.Int(i)
	case 1:
		return rdb.Float(f)
	case 2:
		return rdb.String_(s)
	case 3:
		return rdb.Null
	default:
		return rdb.Bool(i%2 == 0)
	}
}
