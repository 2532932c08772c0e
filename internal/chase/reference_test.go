package chase

import (
	"fmt"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// runSequentialReference computes the restricted chase with a minimal
// engine: triggers collected rule by rule, firing strictly sequential in
// (rule, enumeration) order, invented nulls drawn from the store's global
// FreshNull counter. It is the semantics baseline for Run: differential
// tests require Run's output to match this one fact-for-fact at the same
// ids, with the same provenance and round structure, modulo a bijective
// renaming of invented nulls (store.EqualUpToNullRenaming). Unlike Run it
// is uninstrumented: no metrics, spans or flight events.
func runSequentialReference(base *store.Store, tgds []*logic.TGD, opts Options) (*Result, error) {
	res := &Result{
		Store:   base.Clone(),
		BaseLen: base.Len(),
		Prov:    make(map[store.FactID]Derivation),
	}
	if len(tgds) == 0 {
		return res, nil
	}
	s := res.Store
	delta := s.IDs()
	budget := opts.maxDerived()
	for len(delta) > 0 {
		res.Rounds++
		if res.Rounds > opts.maxRounds() {
			return res, fmt.Errorf("%w: more than %d rounds", ErrBudget, opts.maxRounds())
		}
		deltaSet := make(map[store.FactID]bool, len(delta))
		for _, id := range delta {
			deltaSet[id] = true
		}
		all := res.Rounds == 1
		// All triggers are collected against the round-start store,
		// before any firing — the same discipline as Run.
		perRule := make([][]homo.Match, len(tgds))
		for i, rule := range tgds {
			plan := homo.CachedPlanWith(homo.CacheKey{Owner: rule, Tag: homo.TagBody}, rule.Body,
				homo.CompileOpts{Stats: s})
			perRule[i] = collectTriggers(s, plan, all, deltaSet)
		}
		var newDelta []store.FactID
		for ri, rule := range tgds {
			frontVars := rule.FrontierVars()
			existential := rule.ExistentialVars()
			headPlan := homo.CachedPlanWith(homo.CacheKey{Owner: rule, Tag: homo.TagHead}, rule.Head,
				homo.CompileOpts{Stats: s, Prebound: frontVars})
			for _, m := range perRule[ri] {
				frontier := m.Subst.Restrict(frontVars)
				// The restricted-chase applicability check against the
				// store as it stands mid-round: firings earlier in the
				// sequential order suppress later triggers whose head
				// they satisfied.
				if headPlan.ExistsSeeded(s, frontier) {
					continue
				}
				if budget-len(res.Prov) < len(rule.Head) {
					return res, ErrBudget
				}
				inst := frontier.Clone()
				for _, z := range existential {
					inst[z] = s.FreshNull()
				}
				for i, h := range rule.Head {
					id, err := s.Add(inst.Apply(h))
					if err != nil {
						return res, fmt.Errorf("chase: firing %s: %w", rule, err)
					}
					res.Prov[id] = Derivation{Rule: rule, Parents: m.Facts, HeadIdx: i}
					newDelta = append(newDelta, id)
				}
			}
		}
		delta = newDelta
	}
	return res, nil
}
