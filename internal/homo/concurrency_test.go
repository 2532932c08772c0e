package homo

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// matchKeys renders every homomorphism of body into s as a sorted list of
// "subst|facts" strings — a canonical transcript of one search.
func matchKeys(s *store.Store, body []logic.Atom) []string {
	var out []string
	ForEach(s, body, func(m Match) bool {
		out = append(out, fmt.Sprintf("%s|%v", m.Subst.Key(), m.Facts))
		return true
	})
	sort.Strings(out)
	return out
}

// TestConcurrentSearchesAreIndependent runs many simultaneous searches
// over one shared store under the race detector. All per-search state
// (substitution, atom order, fact assignment, instrumentation tallies)
// must be goroutine-local — this is the property the parallel conflict
// detection and Π-check fan-outs rely on.
func TestConcurrentSearchesAreIndependent(t *testing.T) {
	s := store.New()
	consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c")}
	for i := 0; i < 27; i++ {
		s.MustAdd(logic.NewAtom("p", consts[i%3], consts[(i/3)%3]))
		s.MustAdd(logic.NewAtom("q", consts[(i/9)%3], consts[i%3]))
	}
	bodies := [][]logic.Atom{
		{
			logic.NewAtom("p", logic.V("X"), logic.V("Y")),
			logic.NewAtom("q", logic.V("Y"), logic.V("Z")),
		},
		{
			logic.NewAtom("p", logic.V("X"), logic.V("X")),
		},
		{
			logic.NewAtom("q", logic.C("a"), logic.V("Y")),
			logic.NewAtom("p", logic.V("Y"), logic.V("Z")),
		},
	}
	want := make([][]string, len(bodies))
	for i, b := range bodies {
		want[i] = matchKeys(s, b)
		if len(want[i]) == 0 {
			t.Fatalf("body %d has no matches; test would be vacuous", i)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		bi := g % len(bodies)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got := matchKeys(s, bodies[bi])
				if len(got) != len(want[bi]) {
					t.Errorf("body %d: %d matches, want %d", bi, len(got), len(want[bi]))
					return
				}
				for j := range got {
					if got[j] != want[bi][j] {
						t.Errorf("body %d: match %d = %q, want %q", bi, j, got[j], want[bi][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
