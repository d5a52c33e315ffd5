package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedScanTCT is the reference summary: drop non-positive weights, sum
// in input order, sort a copy by latency and scan the cumulative weight
// for each percentile target.
func sortedScanTCT(buf []WeightedSample) TCTStats {
	var ref []WeightedSample
	var totalW, weightedSum float64
	for _, s := range buf {
		if s.Weight <= 0 {
			continue // a NaN weight is kept, as in SummarizeWeightedTCT
		}
		ref = append(ref, s)
		totalW += s.Weight
		weightedSum += s.MS * s.Weight
	}
	if len(ref) == 0 || totalW == 0 {
		return TCTStats{}
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i].MS < ref[j].MS })
	pct := func(p float64) float64 {
		target := p / 100 * totalW
		cum := 0.0
		for _, it := range ref {
			cum += it.Weight
			if cum >= target {
				return it.MS
			}
		}
		return ref[len(ref)-1].MS
	}
	return TCTStats{MeanMS: weightedSum / totalW, P50MS: pct(50), P95MS: pct(95), P99MS: pct(99), Count: len(ref)}
}

// sameTCTBits reports whether two summaries agree bit for bit.
func sameTCTBits(a, b TCTStats) bool {
	for _, f := range [][2]float64{{a.MeanMS, b.MeanMS}, {a.P50MS, b.P50MS}, {a.P95MS, b.P95MS}, {a.P99MS, b.P99MS}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return a.Count == b.Count
}

// weightKinds draw sample weights whose partial sums are exact in any
// order, which is the regime where the selection must equal the sorted
// scan bit for bit.
var weightKinds = []struct {
	name string
	draw func(rng *rand.Rand) float64
}{
	{"integer", func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(1000)) }},
	{"dyadic", func(rng *rand.Rand) float64 { return float64(1+rng.Intn(1<<10)) / 1024 }},
	{"heavy", func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(3)*rng.Intn(50000)) }},
	{"nonpositive", func(rng *rand.Rand) float64 { return float64(rng.Intn(7) - 3) }},
}

// latencyOrders lay out n latencies in orders that stress a pivot rule.
var latencyOrders = []struct {
	name string
	ms   func(rng *rand.Rand, i, n int) float64
}{
	{"random", func(rng *rand.Rand, i, n int) float64 { return float64(rng.Intn(4*n+1)) / 8 }},
	{"ascending", func(rng *rand.Rand, i, n int) float64 { return float64(i) }},
	{"descending", func(rng *rand.Rand, i, n int) float64 { return float64(n - i) }},
	{"organ-pipe", func(rng *rand.Rand, i, n int) float64 { return float64(min(i, n-1-i)) }},
	{"all-equal", func(rng *rand.Rand, i, n int) float64 { return 7.5 }},
	{"two-valued", func(rng *rand.Rand, i, n int) float64 { return float64(1 + 9*rng.Intn(2)) }},
	{"heavy-tie", func(rng *rand.Rand, i, n int) float64 { return float64(rng.Intn(5)) }},
	// Flows arrive app by app: each block of 64 shares a base latency
	// and adds a small per-flow spread, as the accounting emits them.
	{"app-blocks", func(rng *rand.Rand, i, n int) float64 {
		return float64((i/64)%13)*3 + float64(rng.Intn(16))/16
	}},
}

// TestSummarizeWeightedTCTMatchesSortedScan compares the selection with
// the sort-and-scan reference by Float64bits on every field, over sizes
// from 1 to 200k, exact weight kinds (non-positive ones dropped) and
// input orders that defeat naive pivots.
func TestSummarizeWeightedTCTMatchesSortedScan(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 9, 16, 17, 18, 31, 100, 257, 1000, 4099, 30000}
	if !testing.Short() {
		sizes = append(sizes, 200000)
	}
	rng := rand.New(rand.NewSource(15))
	for _, n := range sizes {
		for _, wk := range weightKinds {
			for _, ord := range latencyOrders {
				if n == 200000 && wk.name != "integer" && ord.name != "app-blocks" {
					continue // the largest size runs one row per kind and per order
				}
				buf := make([]WeightedSample, n)
				for i := range buf {
					buf[i] = WeightedSample{MS: ord.ms(rng, i, n), Weight: wk.draw(rng)}
				}
				want := sortedScanTCT(buf)
				if got := SummarizeWeightedTCT(buf); !sameTCTBits(got, want) {
					t.Fatalf("n=%d %s/%s: got %+v, sorted scan %+v", n, wk.name, ord.name, got, want)
				}
			}
		}
	}
}

// TestSummarizeWeightedTCTNonFiniteWeights covers the targets no
// cumulative weight reaches: a NaN weight makes every target NaN, and the
// percentiles fall back to the largest MS, as in the sorted scan. An
// infinite weight is reached exactly at its own sample.
func TestSummarizeWeightedTCTNonFiniteWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		for _, n := range []int{1, 20, 5000} {
			buf := make([]WeightedSample, n)
			for i := range buf {
				buf[i] = WeightedSample{MS: float64(rng.Intn(100)), Weight: float64(1 + rng.Intn(9))}
			}
			buf[rng.Intn(n)].Weight = w
			want := sortedScanTCT(buf)
			if got := SummarizeWeightedTCT(buf); !sameTCTBits(got, want) {
				t.Fatalf("weight %v, n=%d: got %+v, sorted scan %+v", w, n, got, want)
			}
		}
	}
}

// TestWeightedSelectFallbackSort forces the round limit so the guard's
// sort-and-scan finishes the selection, at every depth it can trigger.
func TestWeightedSelectFallbackSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{17, 100, 5000} {
		for limit := 0; limit <= selectRoundLimit(n); limit++ {
			buf := make([]WeightedSample, n)
			for i := range buf {
				buf[i] = WeightedSample{MS: float64((i / 8) % 11), Weight: float64(1 + rng.Intn(20))}
			}
			want := sortedScanTCT(buf)
			var totalW float64
			for _, s := range buf {
				totalW += s.Weight
			}
			ts := []float64{50.0 / 100 * totalW, 95.0 / 100 * totalW, 99.0 / 100 * totalW}
			out := make([]float64, 3)
			weightedSelect(buf, 0, ts, out, limit)
			if out[0] != want.P50MS || out[1] != want.P95MS || out[2] != want.P99MS {
				t.Fatalf("n=%d limit=%d: got %v, sorted scan p50/p95/p99 %v/%v/%v", n, limit, out, want.P50MS, want.P95MS, want.P99MS)
			}
		}
	}
}

// fabricLikeSamples builds n samples in the order the epoch accounting
// emits them at the fat-tree scale: app by app, latencies clustered per
// app, request counts rounded to integers.
func fabricLikeSamples(n int) []WeightedSample {
	rng := rand.New(rand.NewSource(1))
	buf := make([]WeightedSample, n)
	for i := range buf {
		app := i / 3375
		ms := 0.4 + float64(app%9)*0.9 + rng.ExpFloat64()*0.3
		buf[i] = WeightedSample{MS: ms, Weight: math.Round(1 + rng.ExpFloat64()*40)}
	}
	return buf
}

// TestSummarizeWeightedTCTAllocationFree pins the in-place contract at
// the fabric scale: a 200k-sample summary allocates nothing.
func TestSummarizeWeightedTCTAllocationFree(t *testing.T) {
	src := fabricLikeSamples(200000)
	buf := make([]WeightedSample, len(src))
	allocs := testing.AllocsPerRun(5, func() {
		copy(buf, src)
		SummarizeWeightedTCT(buf)
	})
	if allocs != 0 {
		t.Fatalf("SummarizeWeightedTCT allocated %v times per call, want 0", allocs)
	}
}

// BenchmarkSummarizeWeightedTCT summarizes ~216k flow samples in
// fabric-like order, the per-epoch load of the k=16 fat-tree workloads.
// Each iteration restores the input order first, so the copy is timed too.
func BenchmarkSummarizeWeightedTCT(b *testing.B) {
	src := fabricLikeSamples(216000)
	buf := make([]WeightedSample, len(src))
	b.SetBytes(int64(len(src)) * 16)
	b.ResetTimer()
	var sink TCTStats
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		sink = SummarizeWeightedTCT(buf)
	}
	if sink.Count == 0 {
		b.Fatal("empty summary")
	}
}
