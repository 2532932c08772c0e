package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileHandComputed(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35} // sorted: 15 20 35 40 50
	cases := []struct {
		q, want float64
	}{
		{0, 15},
		{0.25, 20},    // h = 1
		{0.5, 35},     // h = 2
		{0.9, 46},     // h = 3.6: 40 + 0.6·(50−40)
		{0.95, 48},    // h = 3.8: 40 + 0.8·10
		{1, 50},       // h = 4
		{0.125, 17.5}, // h = 0.5: halfway between 15 and 20
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 50 || xs[4] != 35 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}

func TestAggregates(t *testing.T) {
	if got := mean([]float64{1, 2, 3, 10}); got != 4 {
		t.Errorf("mean = %v, want 4", got)
	}
	if !math.IsNaN(mean(nil)) {
		t.Error("mean of nothing should be NaN")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	p90 := percentile(xs, 0.9) // h = 89.1: 90 + 0.1·1
	if math.Abs(p90-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, want 90.1", p90)
	}
	if n := beyond(xs, p90); n != 10 {
		t.Errorf("samples beyond p90 = %d, want 10", n)
	}
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms(1.5ms) = %v", got)
	}
}

func TestSelfTimesAndBooks(t *testing.T) {
	// session [0,100) ⊃ parse [0,10), question [10,90) ⊃ pick [10,20),
	// pi [20,70); a second session [100,130) ⊃ parse [100,125).
	tr := &tracer{spans: []span{
		{Name: "bench.session", Start: 0, End: 100, Parent: -1},
		{Name: "parser.parse", Start: 0, End: 10, Parent: 0},
		{Name: "inquiry.question", Start: 10, End: 90, Parent: 0},
		{Name: "inquiry.pick", Start: 10, End: 20, Parent: 2},
		{Name: "core.pi_check", Start: 20, End: 70, Parent: 2},
		{Name: "bench.session", Start: 100, End: 130, Parent: -1},
		{Name: "parser.parse", Start: 100, End: 125, Parent: 5},
	}}
	self, wall, err := tr.selfTimes()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"bench.session":    (100 - 10 - 80) + (30 - 25),
		"parser.parse":     35,
		"inquiry.question": 80 - 10 - 50,
		"inquiry.pick":     10,
		"core.pi_check":    50,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if wall != 130 {
		t.Errorf("wall = %d, want 130", wall)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != wall {
		t.Errorf("self times sum to %d, wall is %d", sum, wall)
	}
}

func TestTracerRejectsMisnesting(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("a")
	tr.begin("b")
	defer func() {
		if recover() == nil {
			t.Error("ending an outer span before its child did not panic")
		}
	}()
	tr.end(outer)
}
