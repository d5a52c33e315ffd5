// Package metrics provides the statistics the evaluation reports: time
// series of per-epoch measurements, means and percentiles of task
// completion times, and the derived power-saving and energy-per-request
// figures of Figs. 9–11 and 13.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// Series is an ordered sequence of (time, value) samples.
type Series struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// Append adds one sample. Times must be non-decreasing.
func (s *Series) Append(t time.Duration, v float64) {
	if n := len(s.Times); n > 0 && t < s.Times[n-1] {
		panic(fmt.Sprintf("metrics: sample at %v before last %v", t, s.Times[n-1]))
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Mean returns the arithmetic mean of the values, or 0 when empty.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// Max returns the largest value, or 0 when empty. The first sample seeds
// the running maximum, so all-negative series report their true maximum
// rather than a spurious 0.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest value, or 0 when empty. The first sample seeds
// the running minimum, so all-positive series report their true minimum
// rather than a spurious 0.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile of the values (0 ≤ p ≤ 100) by
// linear interpolation between closest ranks; see the package-level
// Percentile. Empty series return 0.
func (s *Series) Percentile(p float64) float64 { return Percentile(s.Values, p) }

// TimeWeightedMean integrates the (right-continuous step) series over its
// span and divides by the span; it equals Mean for uniform sampling.
func (s *Series) TimeWeightedMean() float64 {
	n := len(s.Values)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s.Values[0]
	}
	var area, span float64
	for i := 0; i+1 < n; i++ {
		dt := (s.Times[i+1] - s.Times[i]).Seconds()
		area += s.Values[i] * dt
		span += dt
	}
	if span == 0 {
		return Mean(s.Values)
	}
	return area / span
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks. Empty input returns 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// StdDev returns the population standard deviation, or 0 when len < 2.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// TCTStats summarizes task completion times.
type TCTStats struct {
	MeanMS float64
	P50MS  float64
	P95MS  float64
	P99MS  float64
	Count  int
}

// SummarizeTCT computes the standard latency summary from millisecond
// samples.
func SummarizeTCT(ms []float64) TCTStats {
	return TCTStats{
		MeanMS: Mean(ms),
		P50MS:  Percentile(ms, 50),
		P95MS:  Percentile(ms, 95),
		P99MS:  Percentile(ms, 99),
		Count:  len(ms),
	}
}

// WeightedSample is one latency sample (ms) carrying Weight requests.
type WeightedSample struct {
	MS, Weight float64
}

// SummarizeWeightedTCT computes the latency summary where each sample
// carries a weight (e.g. one latency per flow weighted by the flow's
// request count, giving per-request statistics). Non-positive weights drop
// the sample. Count reports the number of contributing samples; MeanMS is
// the weight-averaged latency, summed in input order.
//
// The p-th percentile is the smallest MS whose cumulative weight (all
// samples with MS ≤ x) reaches p/100·totalW, or the largest MS when no
// value reaches it — what a scan of the samples sorted by MS returns. It
// is found by weighted selection (see weightedSelect), not by sorting.
// The selection sums weights in a different order than a sorted scan. For
// integer weights, and for dyadic weights with a bounded total, every such
// sum is exact and the result equals the sorted scan bit for bit; for
// arbitrary real weights the two can differ only when a target lies
// within rounding error of the boundary between two groups of equal MS.
//
// The summary works in place on the caller's buffer so repeated calls
// allocate nothing: the positive-weight samples are compacted to the
// front of buf and then permuted, and the contents of buf afterwards are
// unspecified.
//
//goldilocks:hotpath
func SummarizeWeightedTCT(buf []WeightedSample) TCTStats {
	items := buf[:0]
	var totalW, weightedSum float64
	for _, s := range buf {
		if s.Weight <= 0 {
			continue
		}
		items = append(items, s)
		totalW += s.Weight
		weightedSum += s.MS * s.Weight
	}
	if len(items) == 0 || totalW == 0 {
		return TCTStats{}
	}
	// Ascending percentiles give the ascending targets weightedSelect
	// requires.
	var targets, pct [3]float64
	for i, p := range [3]float64{50, 95, 99} {
		targets[i] = p / 100 * totalW
	}
	weightedSelect(items, 0, targets[:], pct[:], selectRoundLimit(len(items)))
	return TCTStats{
		MeanMS: weightedSum / totalW,
		P50MS:  pct[0],
		P95MS:  pct[1],
		P99MS:  pct[2],
		Count:  len(items),
	}
}

// selectSortMax is the range length at or below which weightedSelect
// sorts the range and scans it instead of partitioning further.
const selectSortMax = 16

// selectRoundLimit is the number of partition rounds weightedSelect may
// spend on one branch before it sorts what is left: 2·log2(n). A ninther
// pivot halves the range in expectation, so only an adversarial order
// reaches the limit, and the sort then keeps the whole call O(n log n).
func selectRoundLimit(n int) int { return 2 * bits.Len(uint(n)) }

// weightedSelect resolves the ascending weight targets ts over items and
// writes the percentile of ts[i] to out[i]. below is the weight of every
// sample smaller than all of items, so a target t resolves to the
// smallest MS x in items with below + (weight of items with MS ≤ x) ≥ t,
// or to the largest MS in items when none reaches it.
//
// Each round partitions the range three ways around a ninther pivot v
// (< v, == v, > v) while summing the weight below and at v. Targets the
// "<" part reaches recurse into it, targets the "== v" group reaches
// resolve to v, and the rest continue into the ">" part. All targets are
// carried through one recursion, so a range shared by several targets is
// partitioned once. After limit rounds on one branch the remaining range
// is sorted and scanned. items is permuted in place; nothing is allocated.
//
//goldilocks:hotpath
func weightedSelect(items []WeightedSample, below float64, ts, out []float64, limit int) {
	for {
		if len(items) <= selectSortMax || limit == 0 {
			sortScan(items, below, ts, out)
			return
		}
		limit--
		v := ninther(items)
		// Dijkstra's three-way partition: items[:lt] < v,
		// items[lt:gt] == v, items[gt:] > v.
		lt, gt := 0, len(items)
		var wLess, wEq float64
		for i := 0; i < gt; {
			x := items[i]
			switch {
			case x.MS < v:
				items[i], items[lt] = items[lt], x
				wLess += x.Weight
				lt++
				i++
			case x.MS > v:
				gt--
				items[i], items[gt] = items[gt], x
			default:
				wEq += x.Weight
				i++
			}
		}
		cLess := below + wLess
		cEq := cLess + wEq
		// ts[:a] fall in the "<" part, ts[a:b] resolve to v, ts[b:] lie
		// beyond v. With no "<" part, a target at or below cLess is
		// reached by v itself, the smallest MS in the range.
		a := 0
		if lt > 0 {
			for a < len(ts) && ts[a] <= cLess {
				a++
			}
		}
		b := a
		for b < len(ts) && (ts[b] <= cEq || gt == len(items)) {
			out[b] = v // with no ">" part, v is the range's largest MS
			b++
		}
		switch {
		case a > 0 && b < len(ts):
			weightedSelect(items[:lt], below, ts[:a], out[:a], limit)
			items, below, ts, out = items[gt:], cEq, ts[b:], out[b:]
		case a > 0:
			items, ts, out = items[:lt], ts[:a], out[:a]
		case b < len(ts):
			items, below, ts, out = items[gt:], cEq, ts[b:], out[b:]
		default:
			return
		}
	}
}

// ninther returns Tukey's ninther of items: the median of the medians of
// three groups of three samples spread evenly over the range. Flows arrive
// app by app, so the input is far from random; sampling across the whole
// range keeps the pivot near the middle on such structured orders.
func ninther(items []WeightedSample) float64 {
	step := (len(items) - 1) / 8
	at := func(i int) float64 { return items[i*step].MS }
	return median3(median3(at(0), at(1), at(2)), median3(at(3), at(4), at(5)), median3(at(6), at(7), at(8)))
}

// median3 returns the median of a, b and c.
func median3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = c
		if b < a {
			b = a
		}
	}
	return b
}

// sortScan resolves the targets by sorting items by MS and accumulating
// their weights on top of below: the reference definition of the
// percentile, applied to one range.
//
//goldilocks:hotpath
func sortScan(items []WeightedSample, below float64, ts, out []float64) {
	slices.SortFunc(items, func(a, b WeightedSample) int { return cmp.Compare(a.MS, b.MS) })
	cum := below
	j := 0
	for _, it := range items {
		cum += it.Weight
		for j < len(ts) && cum >= ts[j] {
			out[j] = it.MS
			j++
		}
		if j == len(ts) {
			return
		}
	}
	for ; j < len(ts); j++ {
		out[j] = items[len(items)-1].MS
	}
}

// PowerSaving returns the fractional saving of `power` against `baseline`
// (the paper reports all savings relative to E-PVM). Zero baseline gives 0.
func PowerSaving(baseline, power float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - power) / baseline
}
