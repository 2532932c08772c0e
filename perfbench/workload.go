package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"kbrepair"
	"kbrepair/internal/synth"
)

// workload is one pinned knowledge base plus the pinned panel of sessions a
// round runs on it. The KB comes from synth with the workload's own seed and
// must hash to the recorded digest: a change in synth or the serializer then
// stops the benchmark instead of passing as a speed change. Each session's
// simulated user and engine RNG share a fixed seed, so every run replays the
// same dialogues; the --seed flag sets the order the sessions run in.
type workload struct {
	name   string
	params synth.Params
	// digest is the sha256 of the generated KB text (kbrepair.FormatKB).
	digest string
	// A round runs one session per strategy for each of users simulated
	// users.
	strategies []string
	users      int
}

var workloads = []workload{
	{
		// The 25% column of Fig. 3: CDDs only, so the chase does no work.
		name: "fig3-cdd",
		params: synth.Params{Seed: 5, NumFacts: 1005, InconsistencyRatio: 0.25,
			NumCDDs: 15, JoinVarRatio: 0.25},
		digest:     "956777466009cd407185a39fd0106caff91b00306525b270ebe51ffbcea9c983",
		strategies: []string{"random", "opti-join", "opti-prop", "opti-mcd"},
		users:      2,
	},
	{
		// Fig. 4(b): 25 TGDs, so every phase-2 answer re-chases the KB.
		name: "fig4b-tgd",
		params: synth.Params{Seed: 5, NumFacts: 800, InconsistencyRatio: 0.25,
			NumCDDs: 50, NumTGDs: 25},
		digest:     "56a1b021453539505f577a2313642201ff6f0a73f62602c4c782bd2868b06de3",
		strategies: []string{"random", "opti-join", "opti-prop", "opti-mcd"},
		users:      1,
	},
	{
		// A 10× larger store with few conflicts: every Π-check copies it.
		name: "large-sparse",
		params: synth.Params{Seed: 4, NumFacts: 10000, InconsistencyRatio: 0.03,
			NumCDDs: 20, NumTGDs: 10},
		digest:     "117358806fac119b1039aab70158124a518276d7703fe180f63a3ace36b4ad6b",
		strategies: []string{"opti-mcd"},
		users:      1,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// session is one repair dialogue of a round.
type session struct {
	strategy string
	seed     int64 // simulated-user and engine seed, as kbrepair -auto -seed
}

// sessions lists the panel: users 1, 2, … each run every strategy.
func (w workload) sessions() []session {
	var out []session
	for u := 0; u < w.users; u++ {
		for _, s := range w.strategies {
			out = append(out, session{strategy: s, seed: int64(len(out) + 1)})
		}
	}
	return out
}

// generate builds the workload's KB text and checks it against the pinned
// digest.
func (w workload) generate() (string, error) {
	g, err := synth.Generate(w.params)
	if err != nil {
		return "", fmt.Errorf("%s: generate: %w", w.name, err)
	}
	text := kbrepair.FormatKB(g.KB)
	if got := digestOf(text); got != w.digest {
		return "", fmt.Errorf("%s: input drift: generated KB has sha256 %s, pinned %s", w.name, got, w.digest)
	}
	return text, nil
}

func digestOf(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}
