// Partition-quality seed panel. Determinism tests pin the partitioner's
// output for one seed; this panel pins its *quality* across many, so a
// change that deliberately alters partition bytes (a new tie order, a new
// RNG stream) can land as long as the cut and the leaf count do not get
// worse. The committed baseline in testdata/partition_quality.json holds
// one cut and one leaf count per (graph, seed); it is regenerated only to
// re-baseline on purpose:
//
//	GOLDILOCKS_QUALITY_UPDATE=1 go test -run TestPartitionQualityPanel .
//
// The powerlaw-100k row runs only behind the large-graph gate
// (GOLDILOCKS_ALLOCS_LARGE=1), as it costs minutes per seed sweep.
package goldilocks

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"goldilocks/internal/workload"
)

const qualityPanelFile = "testdata/partition_quality.json"

// qualityRow is one graph's panel: cut and leaf count of PartitionToFit at
// partition seeds 1..len(Cuts), capacity serverCapacityFor(g, n/80).
type qualityRow struct {
	Graph  string    `json:"graph"`
	Cuts   []float64 `json:"cuts"`
	Leaves []int     `json:"leaves"`
}

// Gate tolerances against the committed baseline. The max is an extreme
// statistic and moves more between seed sets than the means do, so it
// gets twice the slack.
const (
	qualityMeanTol = 0.01
	qualityMaxTol  = 0.02
)

type qualityCase struct {
	name  string
	seeds int
	spec  func() *Spec
}

func qualityCases() []qualityCase {
	cases := []qualityCase{
		{"mixture-1k", 32, func() *Spec { return workload.MixtureWorkload(1000, 7) }},
		{"mixture-5k", 32, func() *Spec { return workload.MixtureWorkload(5000, 7) }},
		{"twitter-10k", 32, func() *Spec { return workload.TwitterWorkload(10000, 7) }},
	}
	if os.Getenv("GOLDILOCKS_ALLOCS_LARGE") != "" {
		cases = append(cases, qualityCase{"powerlaw-100k", 8, func() *Spec { return workload.PowerLawWorkload(100_000, 7) }})
	}
	return cases
}

func runQualityRow(t *testing.T, c qualityCase) qualityRow {
	g := c.spec().Graph()
	cap := serverCapacityFor(g, g.NumVertices()/80)
	row := qualityRow{Graph: c.name}
	for seed := 1; seed <= c.seeds; seed++ {
		opts := DefaultPartitionOptions()
		opts.Seed = int64(seed)
		tree, err := PartitionToFit(g, cap, opts)
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.name, seed, err)
		}
		row.Cuts = append(row.Cuts, tree.Cut)
		row.Leaves = append(row.Leaves, len(tree.Leaves))
	}
	return row
}

// stats returns the mean cut, max cut and mean leaf count of a row.
func (r qualityRow) stats() (meanCut, maxCut, meanLeaves float64) {
	maxCut = math.Inf(-1)
	for i, c := range r.Cuts {
		meanCut += c
		maxCut = math.Max(maxCut, c)
		meanLeaves += float64(r.Leaves[i])
	}
	n := float64(len(r.Cuts))
	return meanCut / n, maxCut, meanLeaves / n
}

// worseBy reports whether got exceeds base (lower is better) by more than
// tol of base's magnitude. Cuts on mixture graphs are negative
// (anti-affinity edges), so the slack scales with |base|.
func worseBy(got, base, tol float64) bool { return got > base+tol*math.Abs(base) }

func loadQualityPanel(t *testing.T) map[string]qualityRow {
	rows := map[string]qualityRow{}
	raw, err := os.ReadFile(qualityPanelFile)
	if os.IsNotExist(err) {
		return rows
	}
	if err != nil {
		t.Fatal(err)
	}
	var list []qualityRow
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("%s: %v", qualityPanelFile, err)
	}
	for _, r := range list {
		rows[r.Graph] = r
	}
	return rows
}

func writeQualityPanel(t *testing.T, rows map[string]qualityRow) {
	var list []qualityRow
	for _, name := range []string{"mixture-1k", "mixture-5k", "twitter-10k", "powerlaw-100k"} {
		if r, ok := rows[name]; ok {
			list = append(list, r)
		}
	}
	raw, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(qualityPanelFile, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionQualityPanel holds PartitionToFit's mean cut and mean leaf
// count within 1% of the committed baseline, and its max cut within 2%,
// on every panel graph.
func TestPartitionQualityPanel(t *testing.T) {
	base := loadQualityPanel(t)
	update := os.Getenv("GOLDILOCKS_QUALITY_UPDATE") != ""
	for _, c := range qualityCases() {
		got := runQualityRow(t, c)
		gMean, gMax, gLeaves := got.stats()
		if update {
			base[c.name] = got
			t.Logf("%s: recorded mean cut %.1f, max cut %.1f, mean leaves %.2f", c.name, gMean, gMax, gLeaves)
			continue
		}
		b, ok := base[c.name]
		if !ok {
			t.Fatalf("%s: no baseline in %s", c.name, qualityPanelFile)
		}
		if len(b.Cuts) != c.seeds {
			t.Fatalf("%s: baseline has %d seeds, panel runs %d", c.name, len(b.Cuts), c.seeds)
		}
		bMean, bMax, bLeaves := b.stats()
		t.Logf("%s: mean cut %.1f (baseline %.1f), max cut %.1f (%.1f), mean leaves %.2f (%.2f)",
			c.name, gMean, bMean, gMax, bMax, gLeaves, bLeaves)
		var fails []string
		if worseBy(gMean, bMean, qualityMeanTol) {
			fails = append(fails, fmt.Sprintf("mean cut %.1f vs baseline %.1f", gMean, bMean))
		}
		if worseBy(gMax, bMax, qualityMaxTol) {
			fails = append(fails, fmt.Sprintf("max cut %.1f vs baseline %.1f", gMax, bMax))
		}
		if worseBy(gLeaves, bLeaves, qualityMeanTol) {
			fails = append(fails, fmt.Sprintf("mean leaves %.2f vs baseline %.2f", gLeaves, bLeaves))
		}
		for _, f := range fails {
			t.Errorf("%s: %s", c.name, f)
		}
	}
	if update {
		writeQualityPanel(t, base)
	}
}
