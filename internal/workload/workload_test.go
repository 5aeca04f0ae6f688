package workload

import (
	"os"
	"path/filepath"
	"testing"

	"ontoaccess/internal/core"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/triplestore"
	"ontoaccess/internal/update"
)

func TestAssetsMatchTestdata(t *testing.T) {
	// The embedded mapping and testdata/mapping.ttl must not drift.
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "mapping.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != MappingTTL {
		t.Error("internal/workload/assets/mapping.ttl and testdata/mapping.ttl differ")
	}
}

func TestNewMediatorAndListings(t *testing.T) {
	m, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []string{Listing15, Listing17, Listing11} {
		if _, err := m.ExecuteString(req); err != nil {
			t.Fatalf("listing failed: %v\n%s", err, req)
		}
	}
	if m.DB().TotalRows() != 6 {
		t.Errorf("rows = %d", m.DB().TotalRows())
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := NewGenerator(7), NewGenerator(7)
	sa, sb := a.Stream(50, 1), b.Stream(50, 1)
	if len(sa) != 50 || len(sb) != 50 {
		t.Fatalf("stream sizes %d/%d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
	c := NewGenerator(8)
	sc := c.Stream(50, 1)
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestStreamExecutesOnMediator(t *testing.T) {
	m, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(42)
	for _, req := range g.SetupRequests() {
		if _, err := m.ExecuteString(req); err != nil {
			t.Fatalf("setup: %v\n%s", err, req)
		}
	}
	for i, req := range g.Stream(120, 1) {
		if _, err := m.ExecuteString(req); err != nil {
			t.Fatalf("request %d failed: %v\n%s", i, err, req)
		}
	}
	if m.DB().TotalRows() == 0 {
		t.Error("stream inserted nothing")
	}
}

func TestStreamExecutesOnNativeStore(t *testing.T) {
	g := NewGenerator(42)
	store := triplestore.New()
	reqs := append(g.SetupRequests(), g.Stream(120, 1)...)
	for i, src := range reqs {
		req, err := update.Parse(src)
		if err != nil {
			t.Fatalf("request %d: %v\n%s", i, err, src)
		}
		if _, err := update.Apply(store, req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if store.Len() == 0 {
		t.Error("stream inserted nothing")
	}
}

func TestStreamEquivalenceMediatorVsNative(t *testing.T) {
	// The deterministic stream drives both systems into equivalent
	// states (the differential comparison's validity precondition).
	m, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := triplestore.New()
	g1, g2 := NewGenerator(3), NewGenerator(3)
	reqs1 := append(g1.SetupRequests(), g1.Stream(60, 1)...)
	reqs2 := append(g2.SetupRequests(), g2.Stream(60, 1)...)
	for i := range reqs1 {
		if _, err := m.ExecuteString(reqs1[i]); err != nil {
			t.Fatalf("mediator request %d: %v", i, err)
		}
		req, err := update.Parse(reqs2[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := update.Apply(store, req); err != nil {
			t.Fatal(err)
		}
	}
	exported, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	nativeGraph := store.Graph()
	// Compare ignoring rdf:type triples (derived by the mapping).
	diff := 0
	exported.Each(func(tr rdf.Triple) bool {
		if tr.P.Value == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" {
			return true
		}
		if !nativeGraph.Contains(tr) {
			diff++
		}
		return true
	})
	nativeGraph.Each(func(tr rdf.Triple) bool {
		if !exported.Contains(tr) {
			diff++
		}
		return true
	})
	if diff != 0 {
		t.Errorf("views differ in %d triples", diff)
	}
}

func TestCountRequestKinds(t *testing.T) {
	g := NewGenerator(1)
	stream := g.Stream(100, 1)
	counts := CountRequestKinds(stream)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 100 {
		t.Errorf("counts = %v", counts)
	}
	if counts["INSERT DATA"] == 0 || counts["MODIFY"] == 0 {
		t.Errorf("mix missing kinds: %v", counts)
	}
}
