package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"goldilocks/internal/cluster"
)

func TestCoveredMergesOverlaps(t *testing.T) {
	spans := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 50, End: 60}, {Start: 95, End: 200}}
	if got := covered(spans, 0, 100); got != 30+10+5 {
		t.Fatalf("covered = %d, want 45", got)
	}
}

func TestLayerTimesSelfExcludesChildren(t *testing.T) {
	rec := &recorder{epoch: -1}
	// Build the forest by hand: loop ⊃ {epoch ⊃ place, chaos}.
	rec.spans = []span{
		{ID: 0, Parent: -1, Epoch: -1, Name: "bench.loop", Start: 0, End: 100},
		{ID: 1, Parent: 0, Epoch: 0, Name: "chaos.advance", Start: 5, End: 10},
		{ID: 2, Parent: 0, Epoch: 0, Name: "cluster.epoch", Start: 10, End: 90},
		{ID: 3, Parent: 2, Epoch: 0, Name: "scheduler.place", Start: 20, End: 70},
	}
	if err := checkTree(rec.spans); err != nil {
		t.Fatal(err)
	}
	total, self := layerTimes(rec.spans, func(s span) bool { return true })
	want := map[string][2]int64{
		"bench.loop":      {100, 15},
		"chaos.advance":   {5, 5},
		"cluster.epoch":   {80, 30},
		"scheduler.place": {50, 50},
	}
	for name, w := range want {
		if total[name] != w[0] || self[name] != w[1] {
			t.Errorf("%s: total=%d self=%d, want %d %d", name, total[name], self[name], w[0], w[1])
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	loop := rec.begin("bench.loop")
	rec.setEpoch(0)
	ep := rec.begin("cluster.epoch")
	pl := rec.begin("scheduler.place")
	rec.end(pl)
	rec.end(ep)
	rec.setEpoch(-1)
	rec.end(loop)
	if rec.spans[pl].Parent != ep || rec.spans[ep].Parent != loop || rec.spans[ep].Epoch != 0 {
		t.Fatalf("bad nesting: %+v", rec.spans)
	}
	if err := checkTree(rec.spans); err != nil {
		t.Fatal(err)
	}
	var nilRec *recorder
	if id := nilRec.begin("x"); id != -1 {
		t.Fatalf("nil recorder returned id %d", id)
	}
	nilRec.end(-1)
}

func TestCheckReportGate(t *testing.T) {
	ok := cluster.EpochReport{Availability: 1, ActiveServers: 4}
	if err := checkReport(ok, 16, 48); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := []cluster.EpochReport{
		{Availability: 1.5},
		{Availability: 1, ActiveServers: 17},
		{Availability: 1, AdmissionRejected: 49},
		{Availability: 1, MeanTCTMS: math.NaN()},
		{Availability: 1, RejectedDemand: [3]float64{0, math.Inf(1), 0}},
	}
	for i, rep := range bad {
		if err := checkReport(rep, 16, 48); err == nil {
			t.Errorf("case %d: invalid report accepted", i)
		}
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	a := cluster.EpochReport{Epoch: 3, TotalPowerW: 100}
	b := a
	b.RejectedDemand[2] = 1e-300
	da, db := newDigest(), newDigest()
	da.add(a)
	db.add(b)
	if da.sum() == db.sum() {
		t.Fatal("digest ignores a nested array field")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max = %v", got)
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric names and units the
// program prints to the ones BENCHMARK.json declares, and the workload
// list to the program's.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, got map[string]metric) {
		if len(declared) != len(got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(got))
		}
		for _, d := range declared {
			m, ok := got[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s declared in %s, printed as %+v (present %v)", kind, d.Name, d.Unit, m, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd(0, loopOut{}))
	check("per_layer", spec.PerLayer, perLayer(layerIn{}))
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
}
