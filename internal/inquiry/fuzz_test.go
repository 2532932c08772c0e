package inquiry

import "testing"

// FuzzJournalReplay feeds arbitrary bytes to the -replay path: parse a
// journal, check it against a tiny fixed KB, and run the inquiry with a
// ReplayUser answering from it. Any input must end in an error or a
// consistent repair, never a panic. The seed corpus under testdata/fuzz
// holds a journal recorded on that KB and malformed variants of it.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := UnmarshalJournal(data)
		if err != nil {
			return
		}
		kb := fig1bKB(t)
		_, _ = j.CheckKB(kb)
		res, err := New(kb, OptiJoin{}, NewReplayUser(j), j.Seed, Options{}).Run()
		if err != nil {
			return
		}
		if !res.Consistent {
			t.Fatalf("replay finished without error but left the KB inconsistent: %+v", res)
		}
	})
}
