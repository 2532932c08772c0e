package obs

import "testing"

// BenchmarkAttrRecordDisabled measures the cost a non-observed run pays per
// call site: the homomorphism search records against None, which is one
// compare and the plain striped add. Must report 0 allocs/op.
func BenchmarkAttrRecordDisabled(b *testing.B) {
	v := NewRuleCounter("bench.disabled_counter")
	SetAttrEnabled(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.AddFor(None, 1)
	}
}

// BenchmarkAttrCounterAdd measures the enabled hot path: atomic slice load,
// index, striped atomic add. Must report 0 allocs/op.
func BenchmarkAttrCounterAdd(b *testing.B) {
	v := NewRuleCounter("bench.counter_add")
	id := Intern("bench.counter_add/key")
	prev := AttrEnabled()
	SetAttrEnabled(true)
	defer SetAttrEnabled(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.AddFor(id, 1)
	}
}

// BenchmarkAttrCounterAddParallel exercises contended recording on one key
// — the parallel conflict-scan shape — which the striped cells absorb.
func BenchmarkAttrCounterAddParallel(b *testing.B) {
	v := NewRuleCounter("bench.counter_parallel")
	id := Intern("bench.counter_parallel/key")
	prev := AttrEnabled()
	SetAttrEnabled(true)
	defer SetAttrEnabled(prev)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.AddFor(id, 1)
		}
	})
}

// BenchmarkAttrHistogramObserve measures the enabled histogram path.
func BenchmarkAttrHistogramObserve(b *testing.B) {
	v := NewRuleHistogram("bench.hist_observe", SizeBuckets)
	id := Intern("bench.hist_observe/key")
	prev := AttrEnabled()
	SetAttrEnabled(true)
	defer SetAttrEnabled(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ObserveFor(id, float64(i&1023))
	}
}

// BenchmarkAttrSince measures the timing path with obs timing disabled (the
// common production shape: attribution on, clocks off) — the inert timer
// must short-circuit before any clock read.
func BenchmarkAttrSince(b *testing.B) {
	v := NewRuleHistogram("bench.hist_since", nil)
	id := Intern("bench.hist_since/key")
	prev := AttrEnabled()
	SetAttrEnabled(true)
	defer SetAttrEnabled(prev)
	tm := StartTimer() // inert unless obs timing is enabled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.SinceFor(id, tm)
	}
}
