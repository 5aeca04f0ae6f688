package sqlgen

import (
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

func TestInsertRendering(t *testing.T) {
	// Shape of the paper's Listing 10.
	got := Insert("author",
		[]string{"id", "title", "firstname", "lastname", "email", "team"},
		[]rdb.Value{rdb.Int(6), rdb.String_("Mr"), rdb.String_("Matthias"),
			rdb.String_("Hert"), rdb.String_("hert@ifi.uzh.ch"), rdb.Int(5)})
	want := "INSERT INTO author (id, title, firstname, lastname, email, team) " +
		"VALUES (6, 'Mr', 'Matthias', 'Hert', 'hert@ifi.uzh.ch', 5);"
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

func TestUpdateRendering(t *testing.T) {
	// Shape of the paper's Listing 18.
	got := Update("author",
		[]Assign{{Column: "email", Value: rdb.Null}},
		[]Cond{{Column: "id", Value: rdb.Int(6)}, {Column: "email", Value: rdb.String_("hert@ifi.uzh.ch")}})
	want := "UPDATE author SET email = NULL WHERE id = 6 AND email = 'hert@ifi.uzh.ch';"
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

func TestDeleteRendering(t *testing.T) {
	got := Delete("author", []Cond{{Column: "id", Value: rdb.Int(6)}})
	if got != "DELETE FROM author WHERE id = 6;" {
		t.Errorf("got %s", got)
	}
	if Delete("author", nil) != "DELETE FROM author;" {
		t.Error("unconditioned delete")
	}
}

func TestNullCondRendersIsNull(t *testing.T) {
	got := Update("t", []Assign{{Column: "a", Value: rdb.Int(1)}},
		[]Cond{{Column: "b", Value: rdb.Null}})
	if got != "UPDATE t SET a = 1 WHERE b IS NULL;" {
		t.Errorf("got %s", got)
	}
}

func TestStringEscaping(t *testing.T) {
	got := Insert("t", []string{"a"}, []rdb.Value{rdb.String_("O'Brien")})
	if got != "INSERT INTO t (a) VALUES ('O''Brien');" {
		t.Errorf("got %s", got)
	}
}

// Every generated statement must be parseable by the engine's SQL
// parser — the contract between translator and executor.
func TestGeneratedSQLParses(t *testing.T) {
	statements := []string{
		Insert("author", []string{"id", "lastname"}, []rdb.Value{rdb.Int(1), rdb.String_("Hert")}),
		Update("author", []Assign{{Column: "email", Value: rdb.Null}},
			[]Cond{{Column: "id", Value: rdb.Int(6)}}),
		Delete("publication_author", []Cond{{Column: "publication", Value: rdb.Int(12)},
			{Column: "author", Value: rdb.Int(6)}}),
	}
	for _, sql := range statements {
		if _, err := sqlparser.ParseStatement(sql); err != nil {
			t.Errorf("generated SQL does not parse: %v\n%s", err, sql)
		}
	}
}
