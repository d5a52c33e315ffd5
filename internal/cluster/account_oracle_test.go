package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"goldilocks/internal/metrics"
	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// The reference below is the map-keyed, PathLinks-walking accounting the
// link-id version replaced, kept verbatim (renamed ref*) as the oracle for
// TestAccountMatchesMapReference: every EpochReport field must be
// bit-identical between the two.

func (r *Runner) refAccount(in EpochInput, res scheduler.Result) EpochReport {
	burst := in.Burst
	if burst <= 0 {
		burst = 1
	}
	numServers := r.topo.NumServers()
	loads := make([]resources.Vector, numServers)
	for i, s := range res.Placement {
		if s < 0 {
			continue // shed by admission control: runs nowhere
		}
		actual := in.Spec.Containers[i].Demand
		actual[resources.CPU] *= burst
		actual[resources.Network] *= burst
		loads[s] = loads[s].Add(actual)
	}
	active := res.ActiveServers(numServers)
	for s := 0; s < numServers; s++ {
		if r.topo.ServerFailed(s) {
			active[s] = false
		}
	}

	serverW := 0.0
	activeCount := 0
	utilSum := 0.0
	cpuUtil := make([]float64, numServers)
	for s := 0; s < numServers; s++ {
		u := loads[s].Utilization(r.topo.Capacity[s])[resources.CPU]
		cpuUtil[s] = u
		if !active[s] {
			continue
		}
		activeCount++
		utilSum += u
		serverW += r.topo.Server[s].Power(u)
	}

	linkLoad := r.refLinkLoads(in.Spec, res.Placement, burst)
	networkW := r.refNetworkPower(active, linkLoad)

	linkUtil := make(map[*topology.Link]float64, len(linkLoad))
	for l, mbps := range linkLoad {
		if l.CapacityMbps > 0 {
			linkUtil[l] = math.Min(mbps/l.CapacityMbps, r.opts.MaxLinkUtil)
		} else {
			linkUtil[l] = r.opts.MaxLinkUtil
		}
	}
	for _, u := range linkUtil {
		r.hLinkUtil.Observe(u)
	}
	tct, weights := r.refTaskCompletionTimes(in.Spec, res.Placement, cpuUtil, linkUtil)
	stats := refSummarizeWeightedTCT(tct, weights)
	slaViolations := 0.0
	if r.opts.SLATargetMS > 0 {
		var badW, totalW float64
		for i, ms := range tct {
			totalW += weights[i]
			if ms > r.opts.SLATargetMS {
				badW += weights[i]
			}
		}
		if totalW > 0 {
			slaViolations = badW / totalW
		}
	}

	energy := (serverW + networkW) * r.opts.EpochLength.Seconds()
	servedRPS := in.RPS
	if stats.MeanMS > 0 && stats.Count > 0 {
		capRPS := float64(stats.Count) * 1000 / stats.MeanMS
		servedRPS = math.Min(servedRPS, capRPS)
	}
	requests := servedRPS * r.opts.EpochLength.Seconds()
	r.totalEnergyJ += energy
	r.totalReqs += requests

	migrations, migMB := r.migrationDiff(in.Spec, res.Placement)

	rep := EpochReport{
		Epoch:         r.epoch,
		Time:          time.Duration(r.epoch) * r.opts.EpochLength,
		Policy:        r.policy.Name(),
		ActiveServers: activeCount,
		ServerPowerW:  serverW,
		NetworkPowerW: networkW,
		TotalPowerW:   serverW + networkW,
		TCT:           stats,
		MeanTCTMS:     stats.MeanMS,
		Requests:      requests,
		EnergyJ:       energy,
		Migrations:    migrations,
		MigrationMB:   migMB,
		SLAViolations: slaViolations,
	}
	if requests > 0 {
		rep.EnergyPerRequestJ = energy / requests
	}
	if activeCount > 0 {
		rep.MeanServerUtil = utilSum / float64(activeCount)
	}
	return rep
}

func (r *Runner) refNetworkPower(active []bool, linkLoad map[*topology.Link]float64) float64 {
	total := 0.0
	activeIn := func(n *topology.Node) int {
		c := 0
		for _, s := range n.ServerIDs {
			if active[s] {
				c++
			}
		}
		return c
	}
	for _, n := range r.topo.Nodes() {
		if len(n.Switches) == 0 {
			continue
		}
		switch n.Level {
		case topology.LevelRack:
			servers := activeIn(n)
			if servers == 0 {
				continue
			}
			for _, sg := range n.Switches {
				uplinks := 1 + r.opts.BackupSwitches
				if n.Uplink != nil && n.Uplink.CapacityMbps > 0 {
					perPort := n.Uplink.CapacityMbps / float64(sg.Model.NumPorts/2)
					uplinks += int(math.Ceil(linkLoad[n.Uplink] / perPort))
				}
				total += sg.Model.Power(servers+uplinks) * float64(sg.Count)
			}
		case topology.LevelPod, topology.LevelRoot:
			activeChildren := 0
			transit := 0.0
			var childCap float64
			for _, c := range n.Children {
				if activeIn(c) > 0 {
					activeChildren++
				}
				if c.Uplink != nil {
					transit += linkLoad[c.Uplink]
					childCap += c.Uplink.CapacityMbps
				}
			}
			if activeChildren == 0 {
				continue
			}
			for _, sg := range n.Switches {
				on := 1 + r.opts.BackupSwitches
				if childCap > 0 {
					share := childCap / float64(sg.Count)
					on = int(math.Ceil(transit/share)) + r.opts.BackupSwitches
					if on < 1+r.opts.BackupSwitches {
						on = 1 + r.opts.BackupSwitches
					}
				}
				if on > sg.Count {
					on = sg.Count
				}
				ports := sg.Model.NumPorts * activeChildren / len(n.Children)
				if ports < 2 {
					ports = 2
				}
				total += sg.Model.Power(ports) * float64(on)
			}
		}
	}
	return total
}

func (r *Runner) refLinkLoads(spec *workload.Spec, placement []int, burst float64) map[*topology.Link]float64 {
	flowWeight := make([]float64, len(spec.Containers))
	for _, f := range spec.Flows {
		flowWeight[f.A] += f.Count
		flowWeight[f.B] += f.Count
	}
	load := make(map[*topology.Link]float64)
	for _, f := range spec.Flows {
		sa, sb := placement[f.A], placement[f.B]
		if sa < 0 || sb < 0 {
			continue
		}
		if sa == sb {
			continue
		}
		traffic := 0.0
		if flowWeight[f.A] > 0 {
			traffic += spec.Containers[f.A].Demand[resources.Network] * f.Count / flowWeight[f.A]
		}
		if flowWeight[f.B] > 0 {
			traffic += spec.Containers[f.B].Demand[resources.Network] * f.Count / flowWeight[f.B]
		}
		traffic = traffic / 2 * burst
		for _, l := range r.topo.PathLinks(sa, sb) {
			load[l] += traffic
		}
	}
	return load
}

func (r *Runner) refTaskCompletionTimes(spec *workload.Spec, placement []int, cpuUtil []float64, linkUtil map[*topology.Link]float64) (samples, weights []float64) {
	for _, f := range spec.Flows {
		a, b := f.A, f.B
		ca, cb := spec.Containers[a], spec.Containers[b]
		if r.opts.FocusApp != "" && (ca.App.Name != r.opts.FocusApp || cb.App.Name != r.opts.FocusApp) {
			continue
		}
		sa, sb := placement[a], placement[b]
		if sa < 0 || sb < 0 {
			continue
		}
		rho := math.Min(cpuUtil[sb], r.opts.MaxQueueUtil)
		service := cb.App.ServiceTimeMS
		cores := r.topo.Capacity[sb][resources.CPU] / 100
		queued := service + service*queueWaitFactor(rho, cores)
		network := 0.0
		for _, l := range r.topo.PathLinks(sa, sb) {
			network += r.opts.PerHopLatencyMS / (1 - linkUtil[l])
		}
		samples = append(samples, queued+network)
		weights = append(weights, f.Count)
	}
	return samples, weights
}

func refSummarizeWeightedTCT(ms, w []float64) metrics.TCTStats {
	type wv struct{ v, w float64 }
	items := make([]wv, 0, len(ms))
	var totalW, weightedSum float64
	for i, v := range ms {
		if w[i] <= 0 {
			continue
		}
		items = append(items, wv{v: v, w: w[i]})
		totalW += w[i]
		weightedSum += v * w[i]
	}
	if len(items) == 0 || totalW == 0 {
		return metrics.TCTStats{}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	pct := func(p float64) float64 {
		target := p / 100 * totalW
		cum := 0.0
		for _, it := range items {
			cum += it.w
			if cum >= target {
				return it.v
			}
		}
		return items[len(items)-1].v
	}
	return metrics.TCTStats{
		MeanMS: weightedSum / totalW,
		P50MS:  pct(50),
		P95MS:  pct(95),
		P99MS:  pct(99),
		Count:  len(items),
	}
}

// assertBitIdentical compares every field of two values, floats by bit
// pattern (so -0 vs 0 or a last-ulp drift fails), recursing into nested
// structs and arrays.
func assertBitIdentical(t *testing.T, path string, got, want reflect.Value) {
	t.Helper()
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			assertBitIdentical(t, path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i))
		}
	case reflect.Array:
		for i := 0; i < got.Len(); i++ {
			assertBitIdentical(t, fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i))
		}
	case reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			t.Errorf("%s = %v (%#x), reference %v (%#x)", path,
				got.Float(), math.Float64bits(got.Float()), want.Float(), math.Float64bits(want.Float()))
		}
	default:
		if got.Interface() != want.Interface() {
			t.Errorf("%s = %v, reference %v", path, got.Interface(), want.Interface())
		}
	}
}

// oracleFatTree builds a k-ary fat-tree of testbed-class servers (1G NICs)
// so a few hundred containers congest its links.
func oracleFatTree(k int) func() *topology.Topology {
	return func() *topology.Topology {
		tp, err := topology.NewFatTree(k, power.Altoline6940, power.Altoline6940, power.Altoline6940, topology.Config{
			ServerCapacity: resources.New(3200, 64*1024, 1000),
			ServerModel:    power.TestbedOpteron,
			ServerLinkMbps: 1000,
		})
		if err != nil {
			panic(err)
		}
		return tp
	}
}

// TestAccountMatchesMapReference pins the link-id accounting to the map
// reference across topologies, policies, shed containers, burst, focus
// and SLA options and failed servers and links, over several epochs whose
// workloads shrink and grow (so stale scratch contents would show). Every
// report field and the link-utilization histogram's count and sum must be
// bit-identical.
func TestAccountMatchesMapReference(t *testing.T) {
	type tcase struct {
		name   string
		topo   func() *topology.Topology
		policy scheduler.Policy
		specs  []*workload.Spec
		opts   func(*Options)
		burst  float64
		fault  func(t *testing.T, tp *topology.Topology)
		shed   int // force every shed-th container to placement -1
	}
	focusOff := func(o *Options) { o.FocusApp = "" }
	mix := func(sizes ...int) []*workload.Spec {
		var out []*workload.Spec
		for i, n := range sizes {
			out = append(out, workload.MixtureWorkload(n, int64(11+i)))
		}
		return out
	}
	cases := []tcase{
		{name: "testbed/goldilocks/twitter", topo: topology.NewTestbed, policy: scheduler.Goldilocks{},
			specs: []*workload.Spec{workload.TwitterWorkload(176, 1), workload.TwitterWorkload(120, 2), workload.TwitterWorkload(176, 3)}},
		{name: "testbed/borg/focus-off/sla", topo: topology.NewTestbed, policy: scheduler.Borg{},
			specs: mix(96, 48, 96), opts: func(o *Options) { o.FocusApp = ""; o.SLATargetMS = 2 }},
		{name: "testbed/epvm/burst/shed", topo: topology.NewTestbed, policy: scheduler.EPVM{},
			specs: mix(80, 120), burst: 1.5, shed: 7},
		{name: "testbed/goldilocks/failed-server", topo: topology.NewTestbed, policy: scheduler.Goldilocks{},
			specs: mix(48, 64), opts: focusOff,
			fault: func(t *testing.T, tp *topology.Topology) {
				if err := tp.FailServer(3); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "fattree4/goldilocks/half-uplink/sla", topo: oracleFatTree(4), policy: scheduler.Goldilocks{},
			specs: mix(64, 32, 64), burst: 1.5, opts: func(o *Options) { o.FocusApp = ""; o.SLATargetMS = 1.5 },
			fault: func(t *testing.T, tp *topology.Topology) {
				if err := tp.FailUplinkFraction(tp.SubtreesAtLevel(topology.LevelPod)[1], 0.5); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "fattree4/borg/cut-uplink/shed", topo: oracleFatTree(4), policy: scheduler.Borg{},
			specs: mix(64, 96), opts: focusOff, shed: 5,
			fault: func(t *testing.T, tp *topology.Topology) {
				if err := tp.FailUplink(tp.SubtreesAtLevel(topology.LevelRack)[2]); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "fattree8/goldilocks/focus", topo: oracleFatTree(8), policy: scheduler.Goldilocks{},
			specs: mix(600, 300, 600)},
		{name: "fattree8/epvm/focus-off/burst", topo: oracleFatTree(8), policy: scheduler.EPVM{},
			specs: mix(500, 700), opts: focusOff, burst: 1.5},
		{name: "fattree8/borg/faults/sla/shed", topo: oracleFatTree(8), policy: scheduler.Borg{},
			specs: mix(400, 600), shed: 11, opts: func(o *Options) { o.SLATargetMS = 1 },
			fault: func(t *testing.T, tp *topology.Topology) {
				if err := tp.FailServer(17); err != nil {
					t.Fatal(err)
				}
				if err := tp.FailUplinkFraction(tp.SubtreesAtLevel(topology.LevelRack)[5], 0.5); err != nil {
					t.Fatal(err)
				}
				if err := tp.FailUplink(tp.SubtreesAtLevel(topology.LevelPod)[3]); err != nil {
					t.Fatal(err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := tc.topo()
			if tc.fault != nil {
				tc.fault(t, tp)
			}
			opts := DefaultOptions()
			if tc.opts != nil {
				tc.opts(&opts)
			}
			newSide := func() (*Runner, *telemetry.Histogram) {
				o := opts
				o.Telemetry = &telemetry.Session{Metrics: telemetry.NewRegistry()}
				r := NewRunner(tp, tc.policy, o)
				return r, r.hLinkUtil
			}
			got, gotHist := newSide()
			ref, refHist := newSide()
			for e, spec := range tc.specs {
				res, _, err := got.placeWithAdmissionControl(spec, tc.policy, nil)
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if tc.shed > 0 {
					for i := e; i < len(res.Placement); i += tc.shed {
						res.Placement[i] = -1
					}
				}
				in := EpochInput{Spec: spec, RPS: 50000, Burst: tc.burst}
				gotRep := got.account(in, res)
				refRep := ref.refAccount(in, res)
				assertBitIdentical(t, fmt.Sprintf("epoch %d: EpochReport", e), reflect.ValueOf(gotRep), reflect.ValueOf(refRep))
				if gotRep.TCT.Count == 0 || gotRep.NetworkPowerW == 0 {
					t.Fatalf("epoch %d: degenerate case (TCT count %d, network %v W)", e, gotRep.TCT.Count, gotRep.NetworkPowerW)
				}
				if g, w := gotHist.Count(), refHist.Count(); g != w || g == 0 {
					t.Errorf("epoch %d: link-util histogram count %d, reference %d", e, g, w)
				}
				if g, w := gotHist.Sum(), refHist.Sum(); math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("epoch %d: link-util histogram sum %v, reference %v", e, g, w)
				}
				got.epoch++
				ref.epoch++
			}
			if got.totalEnergyJ != ref.totalEnergyJ || got.totalReqs != ref.totalReqs {
				t.Errorf("energy/request totals drifted: %v/%v vs %v/%v", got.totalEnergyJ, got.totalReqs, ref.totalEnergyJ, ref.totalReqs)
			}
		})
	}
}

// TestAccountFlowLoopsAllocationFree checks at run time what the allocfree
// analyzer proves statically: once the scratch has grown to the workload,
// the per-flow loops allocate nothing.
func TestAccountFlowLoopsAllocationFree(t *testing.T) {
	tp := oracleFatTree(8)()
	opts := DefaultOptions()
	opts.FocusApp = ""
	opts.SLATargetMS = 1
	r := NewRunner(tp, scheduler.Borg{}, opts)
	spec := workload.MixtureWorkload(600, 3)
	res, _, err := r.placeWithAdmissionControl(spec, r.policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := EpochInput{Spec: spec, RPS: 50000}
	r.account(in, res) // grows the scratch
	allocs := testing.AllocsPerRun(5, func() {
		r.linkLoads(spec, res.Placement, 1)
		r.taskCompletionTimes(spec, res.Placement)
		metrics.SummarizeWeightedTCT(r.acct.samples)
	})
	if allocs != 0 {
		t.Fatalf("per-flow accounting allocates %v times per epoch, want 0", allocs)
	}
}
