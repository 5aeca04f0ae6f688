package sqlparser

import (
	"reflect"
	"testing"

	"ontoaccess/internal/rdb"
)

func col(table, column string) ColRef { return ColRef{Table: table, Column: column} }

func bin(op BinOp, l, r Expr) Expr { return Binary{Op: op, Left: l, Right: r} }

func TestSelectRendering(t *testing.T) {
	got := Format(Select{
		Items: []SelectItem{{Expr: col("a", "id")}, {Expr: col("a", "email")}},
		From:  TableRef{Table: "author", Alias: "a"},
		Joins: []Join{{Ref: TableRef{Table: "team", Alias: "t"}, On: bin(OpEq, col("a", "team"), col("t", "id"))}},
		Where: bin(OpAnd,
			bin(OpEq, col("a", "firstname"), Lit{rdb.String_("Matthias")}),
			IsNull{Inner: col("a", "email"), Negate: true}),
		Limit: -1, Offset: -1,
	}, nil)
	want := "SELECT a.id, a.email FROM author a JOIN team t ON a.team = t.id " +
		"WHERE a.firstname = 'Matthias' AND a.email IS NOT NULL;"
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

func TestSelectDefaultsAndVariants(t *testing.T) {
	star := Select{Items: []SelectItem{{Star: true}}, From: TableRef{Table: "t"}, Limit: -1, Offset: -1}
	if got := Format(star, nil); got != "SELECT * FROM t;" {
		t.Errorf("got %s", got)
	}
	got := Format(Select{Distinct: true, Items: []SelectItem{{Expr: col("", "x")}}, From: TableRef{Table: "t"},
		Where: bin(OpAnd, IsNull{Inner: col("", "x")}, bin(OpEq, col("", "y"), col("", "z"))),
		Limit: -1, Offset: -1}, nil)
	if got != "SELECT DISTINCT x FROM t WHERE x IS NULL AND y = z;" {
		t.Errorf("got %s", got)
	}
}

// TestSelectModifierRendering covers the solution-modifier clauses the
// compiled query pipeline lowers: comparison operators, ORDER BY,
// LIMIT (including the real "LIMIT 0") and OFFSET.
func TestSelectModifierRendering(t *testing.T) {
	got := Format(Select{
		Items: []SelectItem{{Expr: col("t0", "id")}, {Expr: col("t0", "year")}},
		From:  TableRef{Table: "publication", Alias: "t0"},
		Where: bin(OpAnd, bin(OpAnd,
			bin(OpGe, col("t0", "year"), Lit{rdb.Int(2008)}),
			bin(OpNe, col("t0", "year"), Lit{rdb.Int(2009)})),
			bin(OpLt, col("t0", "title"), col("t0", "id"))),
		OrderBy: []OrderKey{{Expr: col("t0", "year"), Desc: true}, {Expr: col("t0", "id")}},
		Limit:   5,
		Offset:  2,
	}, nil)
	want := "SELECT t0.id, t0.year FROM publication t0 WHERE t0.year >= 2008 " +
		"AND t0.year <> 2009 AND t0.title < t0.id ORDER BY t0.year DESC, t0.id LIMIT 5 OFFSET 2;"
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
	// The LIMIT 0 regression: zero must print a real clause — only the
	// -1 sentinel suppresses it.
	zero := Select{Items: []SelectItem{{Star: true}}, From: TableRef{Table: "t"}, Limit: 0, Offset: -1}
	if got := Format(zero, nil); got != "SELECT * FROM t LIMIT 0;" {
		t.Errorf("LIMIT 0 lost: %s", got)
	}
}

// TestFormatTranslatorShapes pins the layout of the shapes the
// translator builds beyond plain conjunctions: parameter leaves print
// as their arguments, OR chains and arithmetic nodes carry their own
// parentheses, aggregates print without their default alias, and
// HAVING conjuncts chain with AND.
func TestFormatTranslatorShapes(t *testing.T) {
	for _, tc := range []struct {
		sel  Select
		args []rdb.Value
		want string
	}{
		{Select{
			Items: []SelectItem{{Expr: col("t0", "email")}},
			From:  TableRef{Table: "author", Alias: "t0"},
			Where: bin(OpAnd, bin(OpEq, col("t0", "id"), Param{0}), IsNull{Inner: col("t0", "email"), Negate: true}),
			Limit: -1, Offset: -1,
		}, []rdb.Value{rdb.Int(6)}, "SELECT t0.email FROM author t0 WHERE t0.id = 6 AND t0.email IS NOT NULL;"},
		{Select{
			Items: []SelectItem{{Expr: col("t0", "id")}},
			From:  TableRef{Table: "author", Alias: "t0"},
			Where: bin(OpEq, col("t0", "id"), Param{0}),
			Limit: -1, Offset: -1,
		}, nil, "SELECT t0.id FROM author t0 WHERE t0.id = ?;"},
		{Select{
			Items: []SelectItem{{Expr: col("t0", "name")}},
			From:  TableRef{Table: "event", Alias: "t0"},
			Where: bin(OpAnd,
				bin(OpEq, bin(OpMul, bin(OpAdd, col("t0", "year"), col("t0", "rank")), Lit{rdb.Int(2)}), Lit{rdb.Int(4012)}),
				bin(OpOr, bin(OpOr,
					bin(OpGt, bin(OpAdd, col("t0", "year"), Lit{rdb.Int(1)}), Lit{rdb.Int(2010)}),
					bin(OpGt, col("t0", "rank"), Lit{rdb.Float(2000.5)})),
					bin(OpEq, col("t0", "name"), Lit{rdb.String_("O'Brien")}))),
			Limit: -1, Offset: -1,
		}, nil, "SELECT t0.name FROM event t0 WHERE ((t0.year + t0.rank) * 2) = 4012 AND " +
			"((t0.year + 1) > 2010 OR t0.rank > 2000.5 OR t0.name = 'O''Brien');"},
		{Select{
			Items: []SelectItem{{Expr: col("t0", "live")}, {Agg: AggCount, Alias: "count"}, {Agg: AggSum, Alias: "total", Expr: col("t0", "year")}},
			From:  TableRef{Table: "event", Alias: "t0"},
			Joins: []Join{{Ref: TableRef{Table: "team", Alias: "t1"}, LeftOuter: true,
				On: bin(OpAnd, bin(OpEq, col("t0", "team"), col("t1", "id")), IsNull{Inner: col("t1", "name"), Negate: true})}},
			GroupBy: []Expr{col("t0", "live")},
			Having: []HavingCond{
				{Agg: AggCount, Op: OpGe, Val: rdb.Int(2)},
				{Agg: AggAvg, Expr: col("t0", "year"), Op: OpNe, Val: rdb.Float(2004)},
			},
			Limit: -1, Offset: -1,
		}, nil, "SELECT t0.live, COUNT(*), SUM(t0.year) AS total FROM event t0 LEFT JOIN team t1 " +
			"ON t0.team = t1.id AND t1.name IS NOT NULL GROUP BY t0.live HAVING COUNT(*) >= 2 AND AVG(t0.year) <> 2004.0;"},
	} {
		if got := Format(tc.sel, tc.args); got != tc.want {
			t.Errorf("got  %s\nwant %s", got, tc.want)
		}
	}
}

// TestFormatRoundTrip: whatever Format prints parses back to the
// statement it printed — including quoted identifiers, integral
// DOUBLEs, nested negation, right-nested conjunctions and
// parenthesised comparisons.
func TestFormatRoundTrip(t *testing.T) {
	for _, src := range []string{
		`SELECT a.id FROM author a JOIN team t ON a.team = t.id WHERE t.code = 'SEAL';`,
		`SELECT t0.id FROM publication t0 WHERE t0.year > 2005 ORDER BY t0.year DESC LIMIT 0 OFFSET 3;`,
		`SELECT "select", "a b".x AS "from" FROM "t" "order" WHERE y = 2.0 AND z = 1e300 AND w = -0.0;`,
		`SELECT - -z, -(-1), -(a + b) FROM t WHERE a AND (b AND c) AND (NOT (d OR e)) = f;`,
		`SELECT x FROM t WHERE (a = b) = (c IS NULL) AND x NOT IN (1, -2.5, 'q') AND NOT x LIKE 'a%';`,
		`SELECT COUNT(x) AS n, MIN(y), MAX(z) AS "max", SUM(w) AS "max" FROM t GROUP BY x, y HAVING MIN(y) < -3 AND COUNT(*) = 0;`,
		`SELECT x FROM t WHERE a OR b AND c OR (d OR e);`,
	} {
		st, err := ParseStatement(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		sel := st.(Select)
		out := Format(sel, nil)
		back, err := ParseStatement(out)
		if err != nil {
			t.Fatalf("Format output does not parse: %v\n%s\n%s", err, src, out)
		}
		if !reflect.DeepEqual(back, st) {
			t.Errorf("round trip changed the statement\n in  %s\n out %s\n%#v\n%#v", src, out, st, back)
		}
	}
}
