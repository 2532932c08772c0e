package inquiry

import (
	"bytes"
	"testing"

	"kbrepair/internal/obs"
	"kbrepair/internal/par"
)

// TestTraceDeterministicWithRing repeats TestTraceDeterministicAcrossWorkers
// with the event ring on as well, the way every CLI runs: the -trace file
// must stay byte-identical at -workers 1, 2 and 8, and identical to the
// trace written without the ring. Point events recorded on worker
// goroutines (homo.search, par.dispatch) must leave the injected tracer
// clock alone.
func TestTraceDeterministicWithRing(t *testing.T) {
	t.Cleanup(func() {
		par.SetWorkers(0)
		obs.DisableRing()
	})
	plain := traceBytes(t, 1)
	var base []byte
	for _, w := range []int{1, 2, 8} {
		ring := obs.EnableRing(1 << 16)
		got := traceBytes(t, w)
		dispatched := false
		for _, e := range ring.Events() {
			dispatched = dispatched || e.Kind == obs.KindParDispatch
		}
		if w > 1 && !dispatched {
			t.Fatalf("workers=%d: no par.dispatch in the ring; the fan-outs never ran", w)
		}
		if base == nil {
			base = got
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("workers=%d: trace with the ring on diverges from workers=1", w)
		}
	}
	if !bytes.Equal(base, plain) {
		t.Fatal("turning the ring on changed the -trace file")
	}
}
