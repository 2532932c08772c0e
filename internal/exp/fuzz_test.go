package exp

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadBenchReport feeds arbitrary bytes through ReadBenchReportFile
// and compares an accepted report against the committed BENCH.json in both
// directions, the way kbbench -baseline does. Any input must yield an
// error or a comparison, never a panic. The seed corpus under
// testdata/fuzz holds a valid report and a malformed-histogram one.
func FuzzReadBenchReport(f *testing.F) {
	base, err := ReadBenchReportFile(filepath.Join("..", "..", "BENCH.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "report.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := ReadBenchReportFile(path)
		if err != nil {
			return
		}
		CompareBenchReports(base, r, 1.25)
		CompareBenchReports(r, base, 1.25)
	})
}
