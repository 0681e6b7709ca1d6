package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"candle/internal/candle"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{n: 2000, wantP: 99, wantV: 1980}, // p99 has 20 beyond it
		{n: 1000, wantP: 99, wantV: 990},  // exactly 10 beyond
		{n: 200, wantP: 95, wantV: 190},   // p99 would rest on 2 samples
		{n: 40, wantP: 75, wantV: 30},     // 10 of 40 beyond p75
		{n: 10, wantP: 50, wantV: 5},      // no tail supported: the median
		{n: 1, wantP: 50, wantV: 1},
	} {
		got := tailPercentile(seq(tc.n), 99)
		if got.P != tc.wantP || got.Value != tc.wantV || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want p%v = %v", tc.n, got, tc.wantP, tc.wantV)
		}
		if beyond := float64(tc.n) * (1 - got.P/100); tc.n > minBeyond && beyond < minBeyond-1e-9 {
			t.Errorf("n=%d: p%v has only %.1f samples beyond it", tc.n, got.P, beyond)
		}
	}
	if got := tailPercentile(nil, 99); got.N != 0 {
		t.Errorf("empty sample: %+v", got)
	}
	xs := []float64{3, 1, 2}
	tailPercentile(xs, 99)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("tailPercentile reordered its input: %v", xs)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	if q := quantile([]float64{1, 2, 3, 4}, 0.99); q != 4 {
		t.Errorf("quantile(0.99) = %v, want 4", q)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, bad := range []string{"", "has space", "_leading", "semi;colon", "ünïcode"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q should be rejected", bad)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the program's
// workload and metric tables in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	b, err := candle.Scaled("NT3", candle.DefaultSampleDiv, candle.DefaultFeatureDiv)
	if err != nil {
		t.Fatal(err)
	}
	csvs := func(seed int64) [][]byte {
		dir := t.TempDir()
		train, test, err := b.PrepareData(dir, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, p := range []string{train, test} {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, raw)
		}
		return out
	}
	a, again, other := csvs(7), csvs(7), csvs(8)
	for i := range a {
		if !bytes.Equal(a[i], again[i]) {
			t.Errorf("CSV %d differs between two runs of seed 7", i)
		}
		if bytes.Equal(a[i], other[i]) {
			t.Errorf("CSV %d is the same for seeds 7 and 8", i)
		}
	}

	s1, s2 := arrivals(7, 4000, time.Second), arrivals(7, 4000, time.Second)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("the same seed gave two arrival schedules")
	}
	if reflect.DeepEqual(s1, arrivals(8, 4000, time.Second)) {
		t.Error("seeds 7 and 8 gave the same arrival schedule")
	}
	if n := len(s1); n < 3600 || n > 4400 {
		t.Errorf("a second at 4000 req/s scheduled %d arrivals", n)
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] < s1[i-1] || s1[i] >= time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the phase", i, s1[i])
		}
	}

	sb, err := servingBench()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := requestRows(sb, 7, 16)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := requestRows(sb, 7, 16)
	if !reflect.DeepEqual(r1, r2) || len(r1[0]) != sb.Spec.Features {
		t.Error("request rows are not a function of the seed")
	}
}

func TestMonotoneCrossing(t *testing.T) {
	got := monotone([]float64{0.02, 0, 0, 0.005, 0.003, 0.2})
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("monotone gave a decreasing sequence %v", got)
		}
	}
	if math.Abs(got[0]-0.0056) > 1e-12 {
		t.Errorf("pooled head = %v, want 0.0056", got[0])
	}
	rates := []float64{10, 20, 30}
	if r := crossing(rates, []float64{0, 0, 0}, 0.01); r != 30 {
		t.Errorf("no rate over the limit: got %v, want the top rate", r)
	}
	if r := crossing(rates, []float64{0, 0, 0.02}, 0.01); r != 25 {
		t.Errorf("crossing = %v, want 25", r)
	}
	if r := crossing(rates, []float64{0.02, 0.05, 0.1}, 0.01); r != 5 {
		t.Errorf("first rate over: got %v, want 5 (from the origin)", r)
	}
}
