package homo

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// planFixture builds a store with enough joins to make the adaptive atom
// ordering and candidate caching do real work.
func planFixture(tb testing.TB, n int) (*store.Store, []logic.Atom) {
	tb.Helper()
	s := store.New()
	for i := 0; i < n; i++ {
		s.MustAdd(logic.NewAtom("p", logic.C(fmt.Sprintf("a%d", i)), logic.C(fmt.Sprintf("b%d", i%7))))
		s.MustAdd(logic.NewAtom("q", logic.C(fmt.Sprintf("b%d", i%7)), logic.C(fmt.Sprintf("c%d", i%5))))
		if i%3 == 0 {
			s.MustAdd(logic.NewAtom("r", logic.C(fmt.Sprintf("c%d", i%5))))
		}
	}
	body := []logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		logic.NewAtom("q", logic.V("Y"), logic.V("Z")),
		logic.NewAtom("r", logic.V("Z")),
	}
	return s, body
}

// matchSignature renders a match sequence for order-sensitive comparison.
func matchSignature(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Subst.Key() + fmt.Sprint(m.Facts)
	}
	return out
}

// matchSet renders a match sequence as a sorted set: the differential anchor
// since the compile-time orderer — enumeration order is a plan property now,
// not part of the engine contract, but the match *set* (bindings plus fact
// assignments) must be exactly the reference engine's.
func matchSet(ms []Match) []string {
	out := matchSignature(ms)
	sort.Strings(out)
	return out
}

func collectPlan(p *Plan, s *store.Store, seed logic.Subst) []Match {
	var out []Match
	p.ForEachSeeded(s, seed, func(m Match) bool {
		out = append(out, m.Clone())
		return true
	})
	return out
}

func collectReference(s *store.Store, body []logic.Atom, seed logic.Subst) []Match {
	var out []Match
	referenceForEachSeeded(s, body, seed, func(m Match) bool {
		out = append(out, m.Clone())
		return true
	})
	return out
}

// TestPlanMatchesReference pins the compiled engine to the reference
// executor on a joined workload: the same match set — bindings and fact
// assignments — in every compile mode.
func TestPlanMatchesReference(t *testing.T) {
	s, body := planFixture(t, 60)
	want := matchSet(collectReference(s, body, nil))
	if len(want) == 0 {
		t.Fatal("fixture produced no matches; test would be vacuous")
	}
	for _, opts := range []CompileOpts{
		{},
		{Stats: s},
		{Mode: ModeWCOJ},
	} {
		got := matchSet(collectPlan(CompileWith(body, opts), s, nil))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("opts %+v: match sets differ\n got %v\nwant %v", opts, got, want)
		}
	}
}

// TestPlanSeededMatchesReference covers seeded searches, including seed
// variables that do not occur in the body (the tracker's pinned-atom shape)
// and seed-specialized plans compiled with the seed variables prebound.
func TestPlanSeededMatchesReference(t *testing.T) {
	s, body := planFixture(t, 60)
	seed := logic.Subst{
		logic.V("Y"): logic.C("b3"),
		logic.V("W"): logic.C("elsewhere"), // not in body
	}
	want := matchSet(collectReference(s, body, seed))
	if len(want) == 0 {
		t.Fatal("seeded fixture produced no matches; test would be vacuous")
	}
	for _, opts := range []CompileOpts{
		{},
		{Stats: s},
		{Stats: s, Prebound: []logic.Term{logic.V("Y"), logic.V("W")}},
		{Mode: ModeWCOJ},
	} {
		got := matchSet(collectPlan(CompileWith(body, opts), s, seed))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("opts %+v: seeded match sets differ\n got %v\nwant %v", opts, got, want)
		}
	}
}

// TestPlanNodesNotWorseThanReference asserts the tentpole's perf criterion at
// unit granularity: the stats-informed static kernel explores no more
// backtrack nodes than the adaptive reference executor on the same workload,
// and finds exactly as many matches.
func TestPlanNodesNotWorseThanReference(t *testing.T) {
	s, body := planFixture(t, 60)

	refMatches := 0
	ref := &refSearch{
		store: s,
		body:  body,
		sub:   logic.NewSubst(),
		facts: make([]store.FactID, len(body)),
		done:  make([]bool, len(body)),
		fn:    func(Match) bool { refMatches++; return true },
	}
	ref.run(0)

	p := CompileWith(body, CompileOpts{Stats: s})
	if p.Mode() != ModeStatic {
		t.Fatalf("acyclic body compiled to mode %s, want static", p.Mode())
	}
	planMatches := 0
	e := p.pool.Get().(*exec)
	e.reset(s, nil, func(Match) bool { planMatches++; return true })
	e.runStatic(0)

	if planMatches != refMatches {
		t.Errorf("matches: plan %d, reference %d", planMatches, refMatches)
	}
	if e.nodes > ref.nodes {
		t.Errorf("backtrack nodes: plan %d > reference %d (static order + forward checking regressed the tree)", e.nodes, ref.nodes)
	}
	t.Logf("nodes: static %d vs adaptive reference %d", e.nodes, ref.nodes)
}

// TestPlanRepeatedVarAtom covers atoms with a repeated variable, where one
// matchAtom call both binds and checks the same slot.
func TestPlanRepeatedVarAtom(t *testing.T) {
	s := store.New()
	s.MustAdd(logic.NewAtom("e", logic.C("a"), logic.C("a")))
	s.MustAdd(logic.NewAtom("e", logic.C("a"), logic.C("b")))
	s.MustAdd(logic.NewAtom("e", logic.C("c"), logic.C("c")))
	body := []logic.Atom{logic.NewAtom("e", logic.V("X"), logic.V("X"))}
	want := matchSet(collectReference(s, body, nil))
	got := matchSet(collectPlan(Compile(body), s, nil))
	if len(got) != 2 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("repeated-var matches differ\n got %v\nwant %v", got, want)
	}
}

// TestPlanExistsEarlyStop checks exists-only mode stops at the first match
// and reports it.
func TestPlanExistsEarlyStop(t *testing.T) {
	s, body := planFixture(t, 60)
	p := Compile(body)
	if !p.Exists(s) {
		t.Fatal("Exists = false on satisfiable body")
	}
	if !p.ExistsSeeded(s, logic.Subst{logic.V("Y"): logic.C("b3")}) {
		t.Fatal("ExistsSeeded = false on satisfiable seed")
	}
	if p.ExistsSeeded(s, logic.Subst{logic.V("Y"): logic.C("nope")}) {
		t.Fatal("ExistsSeeded = true on unsatisfiable seed")
	}
}

// TestCachedPlanIdentity: same key must return the pointer-identical plan,
// also under concurrency.
func TestCachedPlanIdentity(t *testing.T) {
	_, body := planFixture(t, 5)
	type owner struct{ _ int }
	o := &owner{}
	key := CacheKey{Owner: o, Tag: TagBody}
	first := CachedPlan(key, body)
	var wg sync.WaitGroup
	plans := make([]*Plan, 16)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i] = CachedPlan(key, body)
		}(i)
	}
	wg.Wait()
	for i, p := range plans {
		if p != first {
			t.Fatalf("goroutine %d got a different plan for the same key", i)
		}
	}
}

// TestCachedPlanConcurrentSearch runs many goroutines through one shared
// cached plan — the production shape under internal/par — and checks each
// sees a complete, ordered enumeration.
func TestCachedPlanConcurrentSearch(t *testing.T) {
	s, body := planFixture(t, 40)
	type owner struct{ _ int }
	p := CachedPlan(CacheKey{Owner: &owner{}, Tag: TagBody}, body)
	want := fmt.Sprint(matchSignature(collectPlan(p, s, nil)))
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := fmt.Sprint(matchSignature(collectPlan(p, s, nil))); got != want {
				errs <- got
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Fatalf("concurrent enumeration diverged:\n got %v\nwant %v", got, want)
	}
}

// TestAnswersKeyUnambiguous: tuples whose naive concatenation collides
// ("a"+"bc" vs "ab"+"c", and names containing the old separator) must stay
// distinct answers.
func TestAnswersKeyUnambiguous(t *testing.T) {
	s := store.New()
	s.MustAdd(logic.NewAtom("t", logic.C("a"), logic.C("bc")))
	s.MustAdd(logic.NewAtom("t", logic.C("ab"), logic.C("c")))
	s.MustAdd(logic.NewAtom("t", logic.C("a\x00b"), logic.C("c")))
	s.MustAdd(logic.NewAtom("t", logic.C("a"), logic.C("b\x00c")))
	body := []logic.Atom{logic.NewAtom("t", logic.V("X"), logic.V("Y"))}
	got := Answers(s, body, []logic.Term{logic.V("X"), logic.V("Y")})
	if len(got) != 4 {
		t.Fatalf("Answers collapsed colliding tuples: got %d answers, want 4: %v", len(got), got)
	}
	// And genuine duplicates still deduplicate.
	s2 := store.New()
	s2.MustAdd(logic.NewAtom("t", logic.C("x"), logic.C("y")))
	s2.MustAdd(logic.NewAtom("t", logic.C("x"), logic.C("z")))
	got2 := Answers(s2, body, []logic.Term{logic.V("X")})
	if len(got2) != 1 {
		t.Fatalf("Answers no longer deduplicates: got %d answers, want 1", len(got2))
	}
}

// TestPlanZeroAllocCached is the zero-allocation guarantee of the tentpole:
// a cached-plan exists-mode search on a warm pool allocates nothing.
func TestPlanZeroAllocCached(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	s, body := planFixture(t, 60)
	p := Compile(body)
	seed := logic.Subst{logic.V("Y"): logic.C("b3")}
	p.Exists(s) // warm the pool
	if n := testing.AllocsPerRun(200, func() { p.Exists(s) }); n != 0 {
		t.Errorf("cached Exists allocates %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { p.ExistsSeeded(s, seed) }); n != 0 {
		t.Errorf("cached ExistsSeeded allocates %v allocs/op, want 0", n)
	}
	// Full enumeration through a pre-allocated callback: the kernel itself
	// must not allocate per node or per match.
	fn := func(Match) bool { return true }
	p.ForEachSeeded(s, nil, fn)
	if n := testing.AllocsPerRun(200, func() { p.ForEachSeeded(s, nil, fn) }); n != 0 {
		t.Errorf("cached ForEach allocates %v allocs/op, want 0", n)
	}
}

// BenchmarkHomoForEachCold measures compile-plus-search — the ad-hoc body
// path of the package-level API.
func BenchmarkHomoForEachCold(b *testing.B) {
	s, body := planFixture(b, 200)
	fn := func(Match) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForEach(s, body, fn)
	}
}

// BenchmarkHomoForEachCached measures the hot loop every rule-driven search
// runs: a cached plan over a warm executor pool. Must report 0 allocs/op.
func BenchmarkHomoForEachCached(b *testing.B) {
	s, body := planFixture(b, 200)
	p := Compile(body)
	fn := func(Match) bool { return true }
	p.ForEachSeeded(s, nil, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForEachSeeded(s, nil, fn)
	}
}

// BenchmarkHomoExistsCached is the boolean-query hot path (consistency fast
// paths, chase head checks).
func BenchmarkHomoExistsCached(b *testing.B) {
	s, body := planFixture(b, 200)
	p := Compile(body)
	p.Exists(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Exists(s)
	}
}

// BenchmarkHomoReference is the retained legacy executor on the same
// workload, for before/after comparison in one run.
func BenchmarkHomoReference(b *testing.B) {
	s, body := planFixture(b, 200)
	fn := func(Match) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceForEachSeeded(s, body, nil, fn)
	}
}
