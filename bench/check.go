package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// smallBody is the size up to which a JSON answer is also run through
// encoding/json. Above it (the 20,000-row scans, megabytes each) the
// structural scan below is the well-formedness check: a full decode
// would cost the client more CPU than the daemon spent producing the
// answer, on the two cores they share.
const smallBody = 64 << 10

// countJSONRows scans a SPARQL results JSON document once and returns
// the number of binding objects. ok is false when brackets outside
// strings do not balance or the document is not an object.
//
// The layout is fixed by the W3C format — {"head":{"vars":[...]},
// "results":{"bindings":[{...},...]}} — so a binding is exactly an
// object opened at nesting depth 3.
func countJSONRows(doc []byte) (rows int, ok bool) {
	depth, inString, escaped := 0, false, false
	for _, ch := range doc {
		if inString {
			switch {
			case escaped:
				escaped = false
			case ch == '\\':
				escaped = true
			case ch == '"':
				inString = false
			}
			continue
		}
		switch ch {
		case '"':
			inString = true
		case '{':
			if depth == 3 {
				rows++
			}
			depth++
		case '[':
			depth++
		case '}', ']':
			depth--
			if depth < 0 {
				return 0, false
			}
		}
	}
	return rows, depth == 0 && !inString && len(doc) > 0 && doc[0] == '{'
}

// checkResponse decides whether body is a correct answer to r.
func checkResponse(r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	switch {
	case r.apply != nil:
		// The feedback report (paper Section 6) is Turtle; success is
		// its class.
		if !bytes.Contains(body, []byte("fb:Success")) {
			return fmt.Errorf("update not confirmed: %.200s", body)
		}
		return nil
	case r.ask:
		if string(bytes.TrimSpace(body)) != "true" {
			return fmt.Errorf("ASK answered %.40q, want true", body)
		}
		return nil
	case r.json:
		rows, ok := countJSONRows(body)
		if ok && len(body) <= smallBody {
			ok = json.Valid(body)
		}
		if !ok {
			return fmt.Errorf("malformed results JSON (%d bytes)", len(body))
		}
		if rows != r.rows {
			return fmt.Errorf("%d solutions, want %d", rows, r.rows)
		}
	default:
		// Text table: a header line, then one line per solution.
		if rows := bytes.Count(body, []byte("\n")) - 1; rows != r.rows {
			return fmt.Errorf("%d table rows, want %d", rows, r.rows)
		}
	}
	if r.must != "" && !bytes.Contains(body, []byte(r.must)) {
		return fmt.Errorf("answer lacks %q", r.must)
	}
	return nil
}
