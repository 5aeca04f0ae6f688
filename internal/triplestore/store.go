// Package triplestore implements a native in-memory RDF triple store
// with SPO/POS/OSP indexes.
//
// In the reproduction it plays two roles:
//
//  1. It is the baseline comparator: the paper's introduction argues
//     for mediation over native triple storage partly on performance
//     and compatibility grounds (citing the Berlin SPARQL benchmark
//     results, reference [7]). The differential tests run the same
//     update and query streams against this store and against the
//     OntoAccess mediator.
//  2. It provides the reference semantics for SPARQL/Update: a MODIFY
//     executed through the mediator must leave the exported RDF view
//     of the database in the same state a native store would reach
//     (the bijective-mapping property discussed in the paper's
//     related-work section on view updates).
//
// The store implements sparql.Matcher, so the SPARQL engine evaluates
// queries over it directly.
package triplestore

import (
	"sync"

	"ontoaccess/internal/rdf"
)

// Store is an indexed set of triples, safe for concurrent use.
type Store struct {
	mu  sync.RWMutex
	spo map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{}
	pos map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{}
	osp map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{}
	n   int
}

// New returns an empty store.
func New() *Store {
	return &Store{
		spo: make(map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{}),
		pos: make(map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{}),
		osp: make(map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{}),
	}
}

// FromGraph builds a store containing all triples of g.
func FromGraph(g *rdf.Graph) *Store {
	s := New()
	g.Each(func(t rdf.Triple) bool {
		s.Add(t)
		return true
	})
	return s
}

func idxAdd(idx map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{}, a, b, c rdf.Term) bool {
	m2, ok := idx[a]
	if !ok {
		m2 = make(map[rdf.Term]map[rdf.Term]struct{})
		idx[a] = m2
	}
	m3, ok := m2[b]
	if !ok {
		m3 = make(map[rdf.Term]struct{})
		m2[b] = m3
	}
	if _, exists := m3[c]; exists {
		return false
	}
	m3[c] = struct{}{}
	return true
}

func idxRemove(idx map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{}, a, b, c rdf.Term) bool {
	m2, ok := idx[a]
	if !ok {
		return false
	}
	m3, ok := m2[b]
	if !ok {
		return false
	}
	if _, exists := m3[c]; !exists {
		return false
	}
	delete(m3, c)
	if len(m3) == 0 {
		delete(m2, b)
		if len(m2) == 0 {
			delete(idx, a)
		}
	}
	return true
}

// Add inserts a triple, reporting whether it was new.
func (s *Store) Add(t rdf.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !idxAdd(s.spo, t.S, t.P, t.O) {
		return false
	}
	idxAdd(s.pos, t.P, t.O, t.S)
	idxAdd(s.osp, t.O, t.S, t.P)
	s.n++
	return true
}

// Remove deletes a triple, reporting whether it was present.
func (s *Store) Remove(t rdf.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !idxRemove(s.spo, t.S, t.P, t.O) {
		return false
	}
	idxRemove(s.pos, t.P, t.O, t.S)
	idxRemove(s.osp, t.O, t.S, t.P)
	s.n--
	return true
}

// Contains reports whether the triple is present.
func (s *Store) Contains(t rdf.Triple) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m2, ok := s.spo[t.S]
	if !ok {
		return false
	}
	m3, ok := m2[t.P]
	if !ok {
		return false
	}
	_, ok = m3[t.O]
	return ok
}

// Len returns the number of triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// Clear removes all triples.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spo = make(map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{})
	s.pos = make(map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{})
	s.osp = make(map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{})
	s.n = 0
}

// Match streams every triple matching the pattern to fn; zero-valued
// terms in the pattern act as wildcards. Iteration stops early when
// fn returns false. The most selective index available for the bound
// positions is used.
func (s *Store) Match(pattern rdf.Triple, fn func(rdf.Triple) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sB, pB, oB := !pattern.S.IsZero(), !pattern.P.IsZero(), !pattern.O.IsZero()
	switch {
	case sB && pB && oB:
		if m2, ok := s.spo[pattern.S]; ok {
			if m3, ok := m2[pattern.P]; ok {
				if _, ok := m3[pattern.O]; ok {
					fn(pattern)
				}
			}
		}
	case sB && pB:
		if m2, ok := s.spo[pattern.S]; ok {
			for o := range m2[pattern.P] {
				if !fn(rdf.Triple{S: pattern.S, P: pattern.P, O: o}) {
					return
				}
			}
		}
	case sB && oB:
		if m2, ok := s.osp[pattern.O]; ok {
			for p := range m2[pattern.S] {
				if !fn(rdf.Triple{S: pattern.S, P: p, O: pattern.O}) {
					return
				}
			}
		}
	case pB && oB:
		if m2, ok := s.pos[pattern.P]; ok {
			for sub := range m2[pattern.O] {
				if !fn(rdf.Triple{S: sub, P: pattern.P, O: pattern.O}) {
					return
				}
			}
		}
	case sB:
		if m2, ok := s.spo[pattern.S]; ok {
			for p, m3 := range m2 {
				for o := range m3 {
					if !fn(rdf.Triple{S: pattern.S, P: p, O: o}) {
						return
					}
				}
			}
		}
	case pB:
		if m2, ok := s.pos[pattern.P]; ok {
			for o, m3 := range m2 {
				for sub := range m3 {
					if !fn(rdf.Triple{S: sub, P: pattern.P, O: o}) {
						return
					}
				}
			}
		}
	case oB:
		if m2, ok := s.osp[pattern.O]; ok {
			for sub, m3 := range m2 {
				for p := range m3 {
					if !fn(rdf.Triple{S: sub, P: p, O: pattern.O}) {
						return
					}
				}
			}
		}
	default:
		for sub, m2 := range s.spo {
			for p, m3 := range m2 {
				for o := range m3 {
					if !fn(rdf.Triple{S: sub, P: p, O: o}) {
						return
					}
				}
			}
		}
	}
}

// CountMatches returns how many triples match the pattern.
func (s *Store) CountMatches(pattern rdf.Triple) int {
	n := 0
	s.Match(pattern, func(rdf.Triple) bool { n++; return true })
	return n
}

// Graph materializes all triples into a Graph.
func (s *Store) Graph() *rdf.Graph {
	g := rdf.NewGraph()
	s.Match(rdf.Triple{}, func(t rdf.Triple) bool {
		g.Add(t)
		return true
	})
	return g
}
