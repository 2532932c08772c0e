package store

import (
	"sync"
	"testing"

	"kbrepair/internal/logic"
)

// buildReadStore assembles a store with enough predicates, duplicate values
// and index entries that the read-side accessors all have work to do.
func buildReadStore(t testing.TB) *Store {
	t.Helper()
	s := New()
	consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c"), logic.C("d")}
	for i := 0; i < 64; i++ {
		s.MustAdd(logic.NewAtom("p", consts[i%4], consts[(i/4)%4]))
		s.MustAdd(logic.NewAtom("q", consts[(i/2)%4]))
	}
	return s
}

// TestConcurrentReaders exercises the store's documented concurrency
// contract — concurrent reads are safe while no writer runs — under the
// race detector: many goroutines hammer every read-side accessor the
// parallel conflict-detection and fix-generation paths use
// (Candidates, CandidatesByPred, ActiveDomain, FactRef, Value, Contains),
// and each checks its reads against a pre-computed expectation.
func TestConcurrentReaders(t *testing.T) {
	s := buildReadStore(t)
	wantLen := s.Len()
	wantP := len(s.ByPredicate("p"))
	wantAdom := len(s.ActiveDomain("p", 0))
	a := logic.C("a")
	wantCands := len(s.Candidates("p", 0, a))

	const readers = 8
	var wg sync.WaitGroup
	wg.Add(readers)
	for g := 0; g < readers; g++ {
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				if got := len(s.Candidates("p", 0, a)); got != wantCands {
					t.Errorf("Candidates = %d, want %d", got, wantCands)
					return
				}
				if got := len(s.CandidatesByPred("p")); got != wantP {
					t.Errorf("CandidatesByPred = %d, want %d", got, wantP)
					return
				}
				if got := len(s.ActiveDomain("p", 0)); got != wantAdom {
					t.Errorf("ActiveDomain = %d, want %d", got, wantAdom)
					return
				}
				for id := FactID(0); int(id) < wantLen; id++ {
					ref := s.FactRef(id)
					if ref.Pred != "p" && ref.Pred != "q" {
						t.Errorf("FactRef(%d).Pred = %q", id, ref.Pred)
						return
					}
					if v := s.Value(Position{Fact: id, Arg: 0}); !v.IsConst() {
						t.Errorf("Value(%d@0) = %v, want constant", id, v)
						return
					}
					if !s.Contains(ref) {
						t.Errorf("Contains(FactRef(%d)) = false", id)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadersBetweenWrites interleaves rounds of exclusive writes with
// rounds of parallel reads — the pipeline's actual access pattern (fan-out
// reads, fan-in, sequential SetValue, repeat). The race detector verifies
// that the happens-before edges provided by WaitGroup synchronization are
// enough; no store-internal locking exists or is needed.
func TestReadersBetweenWrites(t *testing.T) {
	s := buildReadStore(t)
	val := []logic.Term{logic.C("x"), logic.C("y")}
	for round := 0; round < 10; round++ {
		// Exclusive write phase.
		s.MustSetValue(Position{Fact: FactID(round), Arg: 0}, val[round%2])
		s.MustAdd(logic.NewAtom("r", val[round%2]))
		// Parallel read phase.
		var wg sync.WaitGroup
		wg.Add(4)
		for g := 0; g < 4; g++ {
			go func() {
				defer wg.Done()
				for id := FactID(0); int(id) < s.Len(); id++ {
					_ = s.FactRef(id)
					_ = s.Arity(id)
				}
				_ = s.Candidates("r", 0, val[0])
				_ = s.ActiveDomainSize("p", 0)
				_ = s.OccursAnywhere(val[1])
			}()
		}
		wg.Wait()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
