package scheduler

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/topology"
	"goldilocks/internal/trace"
	"goldilocks/internal/workload"
)

// fullScanPacker is the packer as it was before closed-server pruning:
// every candidate is offered for every container, the policy checks the
// fit itself, and a server is activated whenever it is placed on while
// empty. It is the oracle the pruned scan must agree with.
type fullScanPacker struct {
	load       *serverLoad
	active     []int
	emptyQueue map[resources.Vector][]int
	classes    []resources.Vector
}

func newFullScanPacker(load *serverLoad, capacities []resources.Vector) *fullScanPacker {
	p := &fullScanPacker{load: load, emptyQueue: make(map[resources.Vector][]int)}
	for s, c := range capacities {
		if _, ok := p.emptyQueue[c]; !ok {
			p.classes = append(p.classes, c)
		}
		p.emptyQueue[c] = append(p.emptyQueue[c], s)
	}
	sort.Slice(p.classes, func(i, j int) bool {
		a, b := p.classes[i], p.classes[j]
		for d := range a {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
	return p
}

func (p *fullScanPacker) candidates() []int {
	out := append([]int(nil), p.active...)
	for _, c := range p.classes {
		if q := p.emptyQueue[c]; len(q) > 0 {
			out = append(out, q[0])
		}
	}
	return out
}

func (p *fullScanPacker) place(server int, d resources.Vector) {
	if p.load.used[server].IsZero() {
		p.active = append(p.active, server)
		for _, c := range p.classes {
			if q := p.emptyQueue[c]; len(q) > 0 && q[0] == server {
				p.emptyQueue[c] = q[1:]
				break
			}
		}
	}
	p.load.add(server, d)
}

// fullScanPlace places req the way mPP, Borg or RC-Informed (by name)
// does, over the unpruned scan.
func fullScanPlace(policy string, req Request) ([]int, error) {
	capFrac := 0.95
	order := demandOrder(req.Spec, req.Topo.AverageCapacity())
	limit := usableCapacities(req.Topo.Capacity, capFrac)
	demand := func(c workload.Container) resources.Vector { return c.Demand }
	if policy == "RC-Informed" {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return idHash(req.Spec.Containers[order[a]].ID) < idHash(req.Spec.Containers[order[b]].ID)
		})
		for s, c := range req.Topo.Capacity {
			limit[s] = resources.OversubscribedCapacity(c, 1.25)
		}
		demand = workload.Container.Reservation
	}
	load := newServerLoad(req.Topo.NumServers())
	pk := newFullScanPacker(load, req.Topo.Capacity)
	placement := make([]int, req.Spec.NumContainers())
	for _, i := range order {
		d := demand(req.Spec.Containers[i])
		best, bestKey, bestActive := -1, math.Inf(1), false
		for _, s := range pk.candidates() {
			if !load.fits(s, d, limit[s]) {
				continue
			}
			active := !load.used[s].IsZero()
			better := false
			switch policy {
			case "mPP":
				slope := req.Topo.Server[s].MarginalPower(load.utilization(s, req.Topo.Capacity[s]))
				switch {
				case best < 0:
					better = true
				case active != bestActive:
					better = active
				default:
					better = slope < bestKey
				}
				if better {
					bestKey = slope
				}
			case "Borg":
				score := borgScore(load.used[s].Add(d), req.Topo.Capacity[s], !active)
				if better = score < bestKey; better {
					bestKey = score
				}
			case "RC-Informed":
				better = best < 0 || s < best
			}
			if better {
				best, bestActive = s, active
			}
		}
		if best < 0 {
			if policy == "RC-Informed" {
				return nil, fmt.Errorf("%w: container %d (reserved %v)", ErrNoCapacity, i, d)
			}
			return nil, fmt.Errorf("%w: container %d (%v)", ErrNoCapacity, i, d)
		}
		placement[i] = best
		pk.place(best, d)
	}
	return placement, nil
}

// checkMatchesFullScan places req with each packing baseline and with the
// full-scan oracle and requires the same placement, or the same
// ErrNoCapacity at the same container. It returns how many of the three
// policies ran out of capacity.
func checkMatchesFullScan(t *testing.T, label string, req Request) (outOfCapacity int) {
	t.Helper()
	for _, p := range []Policy{MPP{}, Borg{}, RCInformed{}} {
		want, wantErr := fullScanPlace(p.Name(), req)
		res, err := p.Place(req)
		if wantErr != nil {
			if err == nil || !errors.Is(err, ErrNoCapacity) || err.Error() != wantErr.Error() {
				t.Fatalf("%s %s: err %v, full scan err %v", label, p.Name(), err, wantErr)
			}
			outOfCapacity++
			continue
		}
		if err != nil {
			t.Fatalf("%s %s: %v, full scan places every container", label, p.Name(), err)
		}
		for i := range want {
			if res.Placement[i] != want[i] {
				t.Fatalf("%s %s: container %d on server %d, full scan puts it on %d", label, p.Name(), i, res.Placement[i], want[i])
			}
		}
	}
	return outOfCapacity
}

// classedTestbed returns the 16-server testbed with up to three capacity
// classes: server s gets scale[s%len(scale)] times the stock capacity.
func classedTestbed(scale ...float64) *topology.Topology {
	topo := topology.NewTestbed()
	for s := range topo.Capacity {
		topo.Capacity[s] = topo.Capacity[s].Scale(scale[s%len(scale)])
	}
	return topo
}

// TestPackerPruningMatchesFullScan checks the pruned candidate scan
// against the unpruned oracle for mPP, Borg and RC-Informed on random
// specs over topologies with several capacity classes, near-full
// servers, zero-demand containers and specs too large to place.
func TestPackerPruningMatchesFullScan(t *testing.T) {
	checkMatchesFullScan(t, "twitter-176", Request{Spec: workload.TwitterWorkload(176, 1), Topo: topology.NewTestbed()})
	checkMatchesFullScan(t, "twitter-176-classes", Request{Spec: workload.TwitterWorkload(176, 1), Topo: classedTestbed(1, 2, 0.5)})

	stock := topology.NewTestbed().Capacity[0]
	rng := rand.New(rand.NewSource(13))
	shapes := []struct {
		name  string
		scale []float64
		// frac draws one demand dimension as a fraction of the stock
		// capacity.
		frac func() float64
		// zero is the share of zero-demand containers.
		zero float64
		// maxN bounds the container count; the largest counts overfill
		// the 16 servers, so some trials run out of capacity.
		maxN int
	}{
		{"random", []float64{1}, func() float64 { return rng.Float64() * 0.3 }, 0, 120},
		{"classes", []float64{1, 2, 0.5}, func() float64 { return rng.Float64() * 0.4 }, 0, 100},
		// A few large sizes that leave servers just short of full.
		{"near-full", []float64{1, 1.5}, func() float64 { return []float64{0.31, 0.32, 0.47, 0.48, 0.6}[rng.Intn(5)] }, 0, 50},
		{"tiny-tail", []float64{1, 2}, func() float64 { return math.Pow(rng.Float64(), 4) * 0.5 }, 0, 600},
		{"zero-demand", []float64{1, 2}, func() float64 { return rng.Float64() * 0.3 }, 0.2, 150},
	}
	placed, outOfCapacity := 0, 0
	for _, sh := range shapes {
		for trial := 0; trial < 30; trial++ {
			n := 1 + rng.Intn(sh.maxN)
			spec := &workload.Spec{Containers: make([]workload.Container, n)}
			for i := range spec.Containers {
				c := workload.Container{ID: i}
				if rng.Float64() >= sh.zero {
					c.Demand = resources.New(sh.frac()*stock[resources.CPU], sh.frac()*stock[resources.Memory], sh.frac()*stock[resources.Network])
					// RC-Informed buckets on the reservation: an explicit
					// one, or the profile's demand.
					if rng.Intn(2) == 0 {
						c.Reserved = c.Demand.Scale(0.5 + rng.Float64())
					} else {
						c.App.Demand = c.Demand
					}
				}
				spec.Containers[i] = c
			}
			failed := checkMatchesFullScan(t, fmt.Sprintf("%s/%d", sh.name, trial), Request{Spec: spec, Topo: classedTestbed(sh.scale...)})
			outOfCapacity += failed
			placed += 3 - failed
		}
	}
	if placed == 0 || outOfCapacity == 0 {
		t.Fatalf("%d placements and %d out-of-capacity runs: the trials must cover both", placed, outOfCapacity)
	}
	t.Logf("%d placements, %d out-of-capacity runs", placed, outOfCapacity)
}

// TestPackerZeroDemandActivatesOnce is the regression test for duplicate
// active entries: placing zero-demand containers on a server must
// activate it once, not once per placement.
func TestPackerZeroDemandActivatesOnce(t *testing.T) {
	caps := topology.NewTestbed().Capacity
	zero := func(int) resources.Vector { return resources.Vector{} }
	p := newPacker(newServerLoad(len(caps)), caps, caps, 4, zero)
	for k := 0; k < 4; k++ {
		p.feasible(k, resources.Vector{})
		p.place(0, resources.Vector{})
	}
	if !reflect.DeepEqual(p.active, []int{0}) {
		t.Fatalf("active = %v after four zero-demand placements on server 0, want [0]", p.active)
	}
	if got := p.feasible(3, resources.Vector{}); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("feasible = %v, want [0 1]: server 0 once, then the next empty server", got)
	}
}

// TestPackerPrunesClosedServers checks that a server too full for the
// smallest remaining demand leaves the scan, and the rest keep their
// order.
func TestPackerPrunesClosedServers(t *testing.T) {
	caps := []resources.Vector{resources.New(100, 100, 100), resources.New(100, 100, 100), resources.New(100, 100, 100)}
	demands := []resources.Vector{resources.New(90, 10, 10), resources.New(50, 10, 10), resources.New(20, 10, 10), resources.New(20, 10, 10)}
	p := newPacker(newServerLoad(len(caps)), caps, caps, len(demands), func(k int) resources.Vector { return demands[k] })
	p.place(0, demands[0]) // server 0 at CPU 90: closed for every demand ≥ 20
	p.place(1, demands[1]) // server 1 at CPU 50
	if got := p.feasible(2, demands[2]); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("feasible = %v, want [1 2]", got)
	}
	if !reflect.DeepEqual(p.active, []int{1}) {
		t.Fatalf("active = %v, want [1]: server 0 is closed", p.active)
	}
}

// fabricRequest builds the Fig. 13 placement input at the k=16 shape: the
// synthesized search trace replicated 9× (9,216 containers) on a 1,024-
// server fat-tree, CPU scaled to a 25% E-PVM utilization.
func fabricRequest(tb testing.TB) Request {
	tb.Helper()
	cfg := topology.Config{
		ServerCapacity: resources.New(7200, 6*1024*1024, 10000),
		ServerModel:    power.DellR940,
		ServerLinkMbps: 10000,
	}
	topo, err := topology.NewFatTree(16, power.Altoline6940, power.Altoline6940, power.Altoline6940, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	servers := topo.NumServers()
	base := trace.Synthesize(trace.SearchTraceOptions{
		Vertices: servers,
		Edges:    trace.DefaultSearchTrace().Edges * servers / 5488,
		Seed:     1,
	})
	spec := &workload.Spec{}
	for r := 0; r < 9; r++ {
		offset := len(spec.Containers)
		for _, c := range base.Containers {
			c.ID += offset
			spec.Containers = append(spec.Containers, c)
		}
	}
	totalCPU := 0.0
	for _, c := range spec.Containers {
		totalCPU += c.Demand[resources.CPU]
	}
	f := 0.25 * float64(servers) * 7200 / totalCPU
	for i := range spec.Containers {
		spec.Containers[i].Demand[resources.CPU] *= f
		spec.Containers[i].Reserved = spec.Containers[i].Demand.Scale(1.5)
	}
	return Request{Spec: spec, Topo: topo}
}

// TestPackerPruningMatchesFullScanFabric runs the oracle comparison at the
// fat-tree scale, where pruning removes most of the active set.
func TestPackerPruningMatchesFullScanFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric-scale placement in -short mode")
	}
	checkMatchesFullScan(t, "fabric", fabricRequest(t))
}

func BenchmarkBorgPlaceFabric(b *testing.B) {
	req := fabricRequest(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Borg{}).Place(req); err != nil {
			b.Fatal(err)
		}
	}
}
