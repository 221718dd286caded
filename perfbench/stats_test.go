package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		tailPct float64
		tail    float64
	}{
		{n: 19, tailPct: 0},            // even p75 would leave only 4 beyond
		{n: 40, tailPct: 75, tail: 30}, // rank 30, 10 beyond
		{n: 100, tailPct: 90, tail: 90},
		{n: 199, tailPct: 90, tail: 180}, // p95 would leave 9
		{n: 200, tailPct: 95, tail: 190},
		{n: 1000, tailPct: 99, tail: 990},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailPct != c.tailPct || s.Tail != c.tail {
			t.Errorf("n=%d: got %+v, want tail p%g = %g", c.n, s, c.tailPct, c.tail)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := summarize([]float64{3, 1, 2}).Median; m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
	if m := medianOf([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestPercentileAt(t *testing.T) {
	if _, ok := percentileAt(seq(199), 95); ok {
		t.Error("p95 of 199 samples leaves 9 beyond; want not ok")
	}
	if v, ok := percentileAt(seq(200), 95); !ok || v != 190 {
		t.Errorf("p95 of 200 = %g, %v; want 190, true", v, ok)
	}
}

func TestSummaryStringShowsCount(t *testing.T) {
	if got := summarize(seq(200)).String(); got != "p50 100.5 p95 190 (n=200)" {
		t.Errorf("String() = %q", got)
	}
}
