package workload

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"goldilocks/internal/resources"
)

func TestTableIIValues(t *testing.T) {
	tests := []struct {
		p       AppProfile
		cpu     float64
		memMB   float64
		netMbps float64
		flows   float64
	}{
		{TwitterCaching, 33, 4096, 24, 4944},
		{WebSearch, 32, 12288, 1, 50},
		{NaiveBayes, 376, 2048, 328, 2},
		{MediaStreaming, 54, 58368, 320, 25},
	}
	for _, tt := range tests {
		t.Run(tt.p.Name, func(t *testing.T) {
			if got := tt.p.Demand[resources.CPU]; got != tt.cpu {
				t.Errorf("CPU = %v, want %v", got, tt.cpu)
			}
			if got := tt.p.Demand[resources.Memory]; got != tt.memMB {
				t.Errorf("memory = %v, want %v", got, tt.memMB)
			}
			if got := tt.p.Demand[resources.Network]; got != tt.netMbps {
				t.Errorf("network = %v, want %v", got, tt.netMbps)
			}
			if tt.p.FlowCount != tt.flows {
				t.Errorf("flows = %v, want %v", tt.p.FlowCount, tt.flows)
			}
		})
	}
	if len(TableII) != 4 {
		t.Fatalf("TableII rows = %d", len(TableII))
	}
}

func TestScaleDemand(t *testing.T) {
	c := Container{App: TwitterCaching, Demand: TwitterCaching.Demand}
	half := c.ScaleDemand(0.5)
	if got := half.Demand[resources.CPU]; got != 16.5 {
		t.Errorf("scaled CPU = %v, want 16.5", got)
	}
	if got := half.Demand[resources.Network]; got != 12 {
		t.Errorf("scaled network = %v, want 12", got)
	}
	if got := half.Demand[resources.Memory]; got != 4096 {
		t.Errorf("memory must not scale with load, got %v", got)
	}
	if c.Demand[resources.CPU] != 33 {
		t.Error("ScaleDemand must not mutate the receiver")
	}
}

func TestWikipediaPatternRange(t *testing.T) {
	w := DefaultWikipedia()
	series := w.Series(60)
	min, max := series[0], series[0]
	for _, v := range series {
		if v < w.MinRPS-1 || v > w.MaxRPS+1 {
			t.Fatalf("RPS %v outside [%v, %v]", v, w.MinRPS, w.MaxRPS)
		}
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	// The diurnal wave must actually span most of the band.
	if min > w.MinRPS*1.5 {
		t.Errorf("trough %v too high", min)
	}
	if max < w.MaxRPS*0.9 {
		t.Errorf("peak %v too low", max)
	}
}

func TestWikipediaPatternPeriodic(t *testing.T) {
	w := DefaultWikipedia()
	if w.RPS(0) != w.RPS(60) {
		t.Error("pattern must repeat with the period")
	}
	if (WikipediaPattern{MinRPS: 5}).RPS(10) != 5 {
		t.Error("zero period must return MinRPS")
	}
}

func TestAzureContainerCountsInRange(t *testing.T) {
	a := DefaultAzure()
	counts := a.ContainerCounts(500)
	for i, c := range counts {
		if c < a.MinContainers || c > a.MaxContainers {
			t.Fatalf("epoch %d: count %d outside [%d, %d]", i, c, a.MinContainers, a.MaxContainers)
		}
	}
	// The walk must move around, not stick to one value.
	distinct := make(map[int]bool)
	for _, c := range counts {
		distinct[c] = true
	}
	if len(distinct) < 20 {
		t.Errorf("container-count walk visited only %d values", len(distinct))
	}
}

func TestAzureCountsDeterministic(t *testing.T) {
	a := DefaultAzure()
	x := a.ContainerCounts(50)
	y := a.ContainerCounts(50)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("counts must be deterministic per seed")
		}
	}
}

func TestAzureLoadFactorsCorrelated(t *testing.T) {
	// §II: pairwise Pearson correlation of VM load sits in 0.6–0.8.
	a := DefaultAzure()
	const epochs = 400
	seriesA := make([]float64, epochs)
	seriesB := make([]float64, epochs)
	for e := 0; e < epochs; e++ {
		f := a.LoadFactors(e, 10)
		seriesA[e] = f[3]
		seriesB[e] = f[7]
	}
	r := PearsonCorrelation(seriesA, seriesB)
	if r < 0.45 || r > 0.95 {
		t.Fatalf("pairwise Pearson correlation = %v, want within the bursty band", r)
	}
}

func TestAzureLoadFactorsBounded(t *testing.T) {
	a := DefaultAzure()
	for e := 0; e < 20; e++ {
		for _, f := range a.LoadFactors(e, 50) {
			if f < 0.3 || f > 1.7 {
				t.Fatalf("load factor %v outside clip range", f)
			}
		}
	}
}

func TestPearsonCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if got := PearsonCorrelation(x, x); math.Abs(got-1) > 1e-9 {
		t.Errorf("self correlation = %v, want 1", got)
	}
	y := []float64{5, 4, 3, 2, 1}
	if got := PearsonCorrelation(x, y); math.Abs(got+1) > 1e-9 {
		t.Errorf("reverse correlation = %v, want -1", got)
	}
	if PearsonCorrelation(x, []float64{1}) != 0 {
		t.Error("length mismatch must return 0")
	}
	if PearsonCorrelation(x, []float64{2, 2, 2, 2, 2}) != 0 {
		t.Error("zero-variance series must return 0")
	}
}

func TestSolrCalibration(t *testing.T) {
	// Fig. 12(a): monotone rise with request rate, 12 GB flat memory.
	prev := SolrCPUForRPS(0)
	for rps := 10.0; rps <= 120; rps += 10 {
		cpu := SolrCPUForRPS(rps)
		if cpu <= prev {
			t.Fatalf("Solr CPU not increasing at %v RPS: %v <= %v", rps, cpu, prev)
		}
		prev = cpu
	}
	if SolrCPUForRPS(200) != SolrCPUForRPS(120) {
		t.Error("per-ISN rate saturates at the trace maximum of 120 RPS")
	}
	if SolrCPUForRPS(-5) != SolrCPUForRPS(0) {
		t.Error("negative rate clamps to idle")
	}
	if SolrMemoryMB != 12*1024 {
		t.Error("search index memory must be 12 GB")
	}
}

func TestHadoopCalibration(t *testing.T) {
	h := NewHadoopCalibration(1)
	// Fig. 12(b): CPU trends upward with traffic, with scatter; multiple
	// samples at one rate differ.
	lo := 0.0
	for i := 0; i < 50; i++ {
		lo += h.CPUForTraffic(10)
	}
	lo /= 50
	hi := 0.0
	for i := 0; i < 50; i++ {
		hi += h.CPUForTraffic(300)
	}
	hi /= 50
	if hi <= lo {
		t.Fatalf("mean CPU at 300 Mbps (%v) must exceed 10 Mbps (%v)", hi, lo)
	}
	h2 := NewHadoopCalibration(2)
	a, b := h2.CPUForTraffic(100), h2.CPUForTraffic(100)
	if a == b {
		t.Error("same traffic rate should sample different CPU values (phase scatter)")
	}
	if h2.CPUForTraffic(-10) < 40 {
		t.Error("CPU floor violated")
	}
	for i := 0; i < 100; i++ {
		if c := h2.CPUForTraffic(100000); c > 3200 {
			t.Fatal("CPU must cap at 32 cores")
		}
	}
}

func TestTwitterWorkloadShape(t *testing.T) {
	s := TwitterWorkload(176, 1)
	if s.NumContainers() != 176 {
		t.Fatalf("containers = %d, want 176", s.NumContainers())
	}
	fronts, caches := 0, 0
	for _, c := range s.Containers {
		switch c.Role {
		case "frontend":
			fronts++
		case "cache":
			caches++
		default:
			t.Fatalf("unexpected role %q", c.Role)
		}
	}
	if fronts != 44 || caches != 132 {
		t.Fatalf("split = %d/%d, want 44/132", fronts, caches)
	}
	if len(s.Flows) == 0 {
		t.Fatal("no flows generated")
	}
	for _, f := range s.Flows {
		if f.A == f.B {
			t.Fatal("self flow")
		}
		if f.A >= 176 || f.B >= 176 || f.A < 0 || f.B < 0 {
			t.Fatalf("flow endpoint out of range: %+v", f)
		}
	}
}

func TestTwitterWorkloadGraphConnectsFrontendsToCaches(t *testing.T) {
	s := TwitterWorkload(40, 1)
	g := s.Graph()
	if g.NumVertices() != 40 {
		t.Fatalf("graph vertices = %d", g.NumVertices())
	}
	// Every frontend must have at least one flow edge.
	for i, c := range s.Containers {
		if c.Role == "frontend" && g.Degree(i) == 0 {
			t.Fatalf("frontend %d isolated", i)
		}
	}
}

func TestTwitterWorkloadTiny(t *testing.T) {
	s := TwitterWorkload(1, 1)
	if s.NumContainers() != 1 {
		t.Fatalf("containers = %d", s.NumContainers())
	}
}

func TestMixtureWorkloadShape(t *testing.T) {
	s := MixtureWorkload(200, 3)
	if s.NumContainers() != 200 {
		t.Fatalf("containers = %d, want 200", s.NumContainers())
	}
	apps := make(map[string]int)
	for _, c := range s.Containers {
		apps[c.App.Name]++
	}
	// The six background applications plus Twitter must all be present.
	for _, name := range []string{"twitter-caching", "web-search", "spark-movierec",
		"naive-bayes", "spark-pagerank", "cassandra", "media-streaming"} {
		if apps[name] == 0 {
			t.Errorf("application %s missing from mixture", name)
		}
	}
}

func TestMixtureWorkloadReplicaAntiAffinity(t *testing.T) {
	s := MixtureWorkload(150, 5)
	g := s.Graph()
	groups := make(map[string][]int)
	for i, c := range s.Containers {
		if c.ReplicaGroup != "" {
			groups[c.ReplicaGroup] = append(groups[c.ReplicaGroup], i)
		}
	}
	if len(groups) == 0 {
		t.Fatal("no replica groups in mixture")
	}
	for name, members := range groups {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				w := g.EdgeWeight(members[i], members[j])
				if w >= 0 {
					t.Fatalf("replica pair in %s has non-negative edge %v", name, w)
				}
			}
		}
	}
}

func TestSpecScaled(t *testing.T) {
	s := TwitterWorkload(20, 1)
	half := s.Scaled(0.5)
	if got := half.Containers[0].Demand[resources.CPU]; got != 16.5 {
		t.Errorf("scaled CPU = %v", got)
	}
	if s.Containers[0].Demand[resources.CPU] != 33 {
		t.Error("Scaled must not mutate the original")
	}
	if half.TotalDemand()[resources.Memory] != s.TotalDemand()[resources.Memory] {
		t.Error("memory must be load-invariant")
	}
}

func TestSpecScaledPer(t *testing.T) {
	s := TwitterWorkload(4, 1)
	factors := []float64{1, 2, 0.5, 1}
	scaled := s.ScaledPer(factors)
	if got := scaled.Containers[1].Demand[resources.CPU]; got != 66 {
		t.Errorf("container 1 CPU = %v, want 66", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched factor count must panic")
		}
	}()
	s.ScaledPer([]float64{1})
}

func TestPropertyScaledDemandLinear(t *testing.T) {
	s := TwitterWorkload(30, 2)
	f := func(raw float64) bool {
		factor := math.Mod(math.Abs(raw), 2)
		scaled := s.Scaled(factor)
		want := s.TotalDemand()[resources.CPU] * factor
		got := scaled.TotalDemand()[resources.CPU]
		return math.Abs(got-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestContainerStringMatchesSprintf pins the concatenation in
// Container.String to the fmt.Sprintf("%s-%d") form it replaced.
func TestContainerStringMatchesSprintf(t *testing.T) {
	tests := []struct {
		app string
		id  int
	}{
		{TwitterCaching.Name, 0},
		{TwitterCaching.Name, 7},
		{"solr", 123456789},
		{"", 42},
		{"x", -1},
		{"neg", -9876},
		{"unicode-⟨⟩", math.MaxInt64},
		{"min", math.MinInt64},
	}
	for _, tt := range tests {
		c := Container{ID: tt.id, App: AppProfile{Name: tt.app}}
		if got, want := c.String(), fmt.Sprintf("%s-%d", tt.app, tt.id); got != want {
			t.Errorf("Container{%q, %d}.String() = %q, want %q", tt.app, tt.id, got, want)
		}
	}
}
