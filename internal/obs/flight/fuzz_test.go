package flight

import (
	"os"
	"path/filepath"
	"testing"

	"kbrepair/internal/obs"
)

// FuzzReadBundle feeds arbitrary bytes through ReadBundle as a single-file
// (/debugz) bundle, then through what kbdump renders from it: the profile
// rows and every metric summary. Any input must yield an error or a
// renderable bundle, never a panic. The seed corpus under testdata/fuzz
// holds a valid bundle and the two malformed-histogram reproducers (one in
// the metrics section, one in the attribution section).
func FuzzReadBundle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "bundle.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := ReadBundle(path)
		if err != nil {
			return
		}
		obs.Rows(b.Attr)
		for _, h := range b.Metrics.Histograms {
			h.Summary()
		}
	})
}
