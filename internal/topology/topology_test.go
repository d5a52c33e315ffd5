package topology

import (
	"math"
	"testing"
	"testing/quick"

	"goldilocks/internal/power"
	"goldilocks/internal/resources"
)

func testConfig() Config {
	return Config{
		ServerCapacity: resources.New(2400, 256*1024, 1000),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	}
}

func TestLeafSpineShape(t *testing.T) {
	tp, err := NewLeafSpine(8, 2, 2, 1000, power.TestbedHPE3800, power.TestbedHPE3800, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumServers() != 16 {
		t.Fatalf("servers = %d, want 16", tp.NumServers())
	}
	racks := tp.SubtreesAtLevel(LevelRack)
	if len(racks) != 8 {
		t.Fatalf("racks = %d, want 8", len(racks))
	}
	for _, r := range racks {
		if len(r.Children) != 2 {
			t.Fatalf("rack %d has %d servers", r.ID, len(r.Children))
		}
		if r.Uplink.CapacityMbps != 2000 {
			t.Fatalf("rack uplink = %v, want 2000 (2 spines × 1G)", r.Uplink.CapacityMbps)
		}
	}
	// 8 leaf + 2 spine switches.
	if got := tp.NumSwitches(); got != 10 {
		t.Fatalf("switches = %d, want 10", got)
	}
}

func TestLeafSpineInvalidShape(t *testing.T) {
	if _, err := NewLeafSpine(0, 2, 2, 1000, power.Wedge, power.Wedge, testConfig()); err == nil {
		t.Fatal("zero leaves must fail")
	}
}

func TestTestbedMatchesPaper(t *testing.T) {
	tb := NewTestbed()
	if tb.NumServers() != 16 {
		t.Fatalf("testbed servers = %d", tb.NumServers())
	}
	if cap := tb.Capacity[0]; cap != resources.New(3200, 65536, 1000) {
		t.Fatalf("testbed server capacity = %v", cap)
	}
	if !tb.IsSymmetric() {
		t.Fatal("fresh testbed must be symmetric")
	}
}

func TestFatTreeShape(t *testing.T) {
	tp, err := NewFatTree(4, power.Altoline6940, power.Altoline6940, power.Altoline6940, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumServers() != 16 { // k³/4
		t.Fatalf("servers = %d, want 16", tp.NumServers())
	}
	if got := len(tp.SubtreesAtLevel(LevelPod)); got != 4 {
		t.Fatalf("pods = %d, want 4", got)
	}
	if got := len(tp.SubtreesAtLevel(LevelRack)); got != 8 {
		t.Fatalf("racks = %d, want 8", got)
	}
	// 5k²/4 = 20 switches.
	if got := tp.NumSwitches(); got != 20 {
		t.Fatalf("switches = %d, want 20", got)
	}
	// Rack outbound: k/2 × link = 2000; pod outbound: (k/2)² × link = 4000.
	rack := tp.SubtreesAtLevel(LevelRack)[0]
	if rack.Uplink.CapacityMbps != 2000 {
		t.Fatalf("rack uplink = %v", rack.Uplink.CapacityMbps)
	}
	pod := tp.SubtreesAtLevel(LevelPod)[0]
	if pod.Uplink.CapacityMbps != 4000 {
		t.Fatalf("pod uplink = %v", pod.Uplink.CapacityMbps)
	}
}

func TestFatTreeOddArityRejected(t *testing.T) {
	if _, err := NewFatTree(5, power.Wedge, power.Wedge, power.Wedge, testConfig()); err == nil {
		t.Fatal("odd arity must be rejected")
	}
	if _, err := NewFatTree(0, power.Wedge, power.Wedge, power.Wedge, testConfig()); err == nil {
		t.Fatal("zero arity must be rejected")
	}
}

func TestSimulationFatTreeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 5488-server network")
	}
	tp := NewSimulationFatTree()
	if tp.NumServers() != 5488 {
		t.Fatalf("servers = %d, want 5488 (§VI-B)", tp.NumServers())
	}
	if got := tp.NumSwitches(); got != 980 {
		t.Fatalf("switches = %d, want 980 (§VI-B)", got)
	}
}

func TestHopDistance(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Server layout: pod p, rack r, server s → id = p*4 + r*2 + s.
	tests := []struct {
		name string
		a, b int
		want int
	}{
		{"same server", 0, 0, 0},
		{"same rack", 0, 1, 2},
		{"same pod", 0, 2, 4},
		{"cross pod", 0, 4, 6},
		{"cross pod far", 3, 15, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tp.HopDistance(tt.a, tt.b); got != tt.want {
				t.Errorf("HopDistance(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestHopDistanceSymmetric(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		x, y := int(a)%16, int(b)%16
		return tp.HopDistance(x, y) == tp.HopDistance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathLinks(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if links := tp.PathLinks(0, 0); links != nil {
		t.Fatal("self path must be empty")
	}
	// Same rack: both server NIC links only.
	if links := tp.PathLinks(0, 1); len(links) != 2 {
		t.Fatalf("same-rack path links = %d, want 2", len(links))
	}
	// Same pod: 2 NICs + 2 rack uplinks.
	if links := tp.PathLinks(0, 2); len(links) != 4 {
		t.Fatalf("same-pod path links = %d, want 4", len(links))
	}
	// Cross pod: 2 NICs + 2 rack + 2 pod uplinks.
	if links := tp.PathLinks(0, 4); len(links) != 6 {
		t.Fatalf("cross-pod path links = %d, want 6", len(links))
	}
}

func TestLinkReservation(t *testing.T) {
	l := &Link{CapacityMbps: 100}
	if !l.Reserve(60) {
		t.Fatal("reserve 60/100 must succeed")
	}
	if l.Residual() != 40 {
		t.Fatalf("residual = %v, want 40", l.Residual())
	}
	if l.Reserve(50) {
		t.Fatal("overcommit must fail")
	}
	if l.Reserve(-1) {
		t.Fatal("negative reservation must fail")
	}
	l.Release(30)
	if l.Residual() != 70 {
		t.Fatalf("residual after release = %v, want 70", l.Residual())
	}
	l.Release(1000)
	if l.ReservedMbps != 0 {
		t.Fatal("release must clamp at zero")
	}
}

func TestFailUplinkMakesAsymmetric(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !tp.IsSymmetric() {
		t.Fatal("fresh fat-tree must be symmetric")
	}
	rack := tp.SubtreesAtLevel(LevelRack)[0]
	if err := tp.FailUplinkFraction(rack, 0.5); err != nil {
		t.Fatal(err)
	}
	if rack.Uplink.CapacityMbps != 1000 {
		t.Fatalf("degraded uplink = %v, want 1000", rack.Uplink.CapacityMbps)
	}
	if tp.IsSymmetric() {
		t.Fatal("after failure topology must be asymmetric")
	}
	if err := tp.FailUplinkFraction(tp.Root, 0.5); err == nil {
		t.Fatal("root has no uplink; must error")
	}
	if err := tp.FailUplinkFraction(rack, 2); err == nil {
		t.Fatal("fraction > 1 must error")
	}
}

func TestAverageCapacity(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := tp.AverageCapacity(); got != testConfig().ServerCapacity {
		t.Fatalf("homogeneous average = %v", got)
	}
	// Heterogeneous: double one server's CPU.
	tp.Capacity[0] = tp.Capacity[0].Add(resources.New(2400, 0, 0))
	avg := tp.AverageCapacity()
	want := testConfig().ServerCapacity[resources.CPU] + 2400/16.0
	if math.Abs(avg[resources.CPU]-want) > 1e-9 {
		t.Fatalf("heterogeneous average CPU = %v, want %v", avg[resources.CPU], want)
	}
}

func TestServerIDsCoverage(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tp.Root.ServerIDs); got != 16 {
		t.Fatalf("root covers %d servers", got)
	}
	seen := make(map[int]bool)
	for _, r := range tp.SubtreesAtLevel(LevelRack) {
		for _, s := range r.ServerIDs {
			if seen[s] {
				t.Fatalf("server %d in two racks", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != 16 {
		t.Fatalf("racks cover %d servers", len(seen))
	}
}

func TestClone(t *testing.T) {
	tp := NewTestbed()
	cl := tp.Clone()
	rack := cl.SubtreesAtLevel(LevelRack)[0]
	if err := cl.FailUplinkFraction(rack, 1); err != nil {
		t.Fatal(err)
	}
	cl.Capacity[0] = resources.New(1, 1, 1)
	if !tp.IsSymmetric() {
		t.Fatal("mutating clone leaked into original")
	}
	origRack := tp.SubtreesAtLevel(LevelRack)[0]
	if origRack.Uplink.CapacityMbps == 0 {
		t.Fatal("original uplink shared with clone")
	}
	if cl.HopDistance(0, 1) != tp.HopDistance(0, 1) {
		t.Fatal("clone structure differs")
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	if len(TableI) != 5 {
		t.Fatalf("TableI rows = %d, want 5", len(TableI))
	}
	wantServers := map[string]int{
		"Google": 98304, "Facebook": 184320, "VL2(96)": 46080,
		"Fat-tree(32)": 32768, "Fat-tree(72)": 93312,
	}
	wantSwitches := map[string]int{
		"Google": 2048 + 3584, "Facebook": 4608 + 576, "VL2(96)": 2304 + 144,
		"Fat-tree(32)": 1280, "Fat-tree(72)": 6480,
	}
	for _, dc := range TableI {
		if dc.NumServers != wantServers[dc.Name] {
			t.Errorf("%s servers = %d, want %d", dc.Name, dc.NumServers, wantServers[dc.Name])
		}
		if dc.NumSwitches() != wantSwitches[dc.Name] {
			t.Errorf("%s switches = %d, want %d", dc.Name, dc.NumSwitches(), wantSwitches[dc.Name])
		}
	}
}

func TestTableINetworkShareAround20Percent(t *testing.T) {
	// §II: "DCN only contributes around 20% of the total power" at the
	// 20%-utilization baseline. Google's 96 W SoC servers make it an
	// outlier with a higher network share; assert each DC stays a
	// minority consumer and the fleet average lands near 20%.
	sum := 0.0
	for _, dc := range TableI {
		network := dc.SwitchPowerFull()
		total := dc.TotalPowerAt(0.20)
		share := network / total
		if share <= 0 || share > 0.55 {
			t.Errorf("%s: network share = %.2f, want minority (< 0.55)", dc.Name, share)
		}
		sum += share
	}
	avg := sum / float64(len(TableI))
	if avg < 0.10 || avg > 0.35 {
		t.Errorf("average network share = %.2f, want ~0.20", avg)
	}
}

func TestLevelString(t *testing.T) {
	if LevelServer.String() != "server" || LevelRack.String() != "rack" ||
		LevelPod.String() != "pod" || LevelRoot.String() != "root" {
		t.Fatal("level names wrong")
	}
	if Level(9).String() == "" {
		t.Fatal("unknown level must still render")
	}
}

// capacityGraphEqual compares every link capacity and every server capacity
// vector between two structurally identical topologies.
func capacityGraphEqual(t *testing.T, got, want *Topology) {
	t.Helper()
	wantByID := make(map[int]*Node)
	for _, n := range want.Nodes() {
		wantByID[n.ID] = n
	}
	for _, n := range got.Nodes() {
		w, ok := wantByID[n.ID]
		if !ok {
			t.Fatalf("node %d missing from reference", n.ID)
		}
		switch {
		case n.Uplink == nil && w.Uplink == nil:
		case n.Uplink == nil || w.Uplink == nil:
			t.Fatalf("node %d uplink presence differs", n.ID)
		case n.Uplink.CapacityMbps != w.Uplink.CapacityMbps:
			t.Fatalf("node %d uplink = %v, want %v", n.ID, n.Uplink.CapacityMbps, w.Uplink.CapacityMbps)
		}
	}
	for id := range got.Capacity {
		if got.Capacity[id] != want.Capacity[id] {
			t.Fatalf("server %d capacity = %v, want %v", id, got.Capacity[id], want.Capacity[id])
		}
	}
}

func TestFailRecoverUplinkRoundTrip(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pristine := tp.Clone()
	rack := tp.SubtreesAtLevel(LevelRack)[2]
	pod := tp.SubtreesAtLevel(LevelPod)[1]
	// Compound fractional degradations on one link, a full cut on another.
	if err := tp.FailUplinkFraction(rack, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := tp.FailUplinkFraction(rack, 0.5); err != nil {
		t.Fatal(err)
	}
	if rack.Uplink.CapacityMbps != 500 {
		t.Fatalf("compounded capacity = %v, want 500", rack.Uplink.CapacityMbps)
	}
	if err := tp.FailUplink(pod); err != nil {
		t.Fatal(err)
	}
	if pod.Uplink.CapacityMbps != 0 {
		t.Fatalf("cut link capacity = %v, want 0", pod.Uplink.CapacityMbps)
	}
	if rack.Uplink.Nominal() != 2000 {
		t.Fatalf("Nominal = %v, want 2000", rack.Uplink.Nominal())
	}
	if err := tp.RecoverUplink(rack); err != nil {
		t.Fatal(err)
	}
	if err := tp.RecoverUplink(pod); err != nil {
		t.Fatal(err)
	}
	capacityGraphEqual(t, tp, pristine)
	if !tp.IsSymmetric() {
		t.Fatal("recovered topology must be symmetric again")
	}
	// Recovering a never-failed link is a no-op; the root is an error.
	other := tp.SubtreesAtLevel(LevelRack)[0]
	if err := tp.RecoverUplink(other); err != nil {
		t.Fatal(err)
	}
	if other.Uplink.CapacityMbps != 2000 {
		t.Fatal("no-op recover changed a healthy link")
	}
	if err := tp.RecoverUplink(tp.Root); err == nil {
		t.Fatal("root has no uplink; must error")
	}
}

func TestFailRecoverServerRoundTrip(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Make server 3 heterogeneous so restore provably returns its own
	// vector, not a fleet-wide default.
	tp.Capacity[3] = tp.Capacity[3].Add(resources.New(800, 0, 0))
	pristine := tp.Clone()

	if err := tp.FailServer(3); err != nil {
		t.Fatal(err)
	}
	if !tp.ServerFailed(3) || tp.NumFailedServers() != 1 {
		t.Fatal("failure not recorded")
	}
	if tp.Capacity[3] != (resources.Vector{}) {
		t.Fatalf("failed server capacity = %v, want zero", tp.Capacity[3])
	}
	if nic := tp.ServerNode[3].Uplink; nic.CapacityMbps != 0 {
		t.Fatalf("failed server NIC = %v, want 0", nic.CapacityMbps)
	}
	// Idempotent re-failure must not overwrite the nominal snapshot.
	if err := tp.FailServer(3); err != nil {
		t.Fatal(err)
	}
	if err := tp.RecoverServer(3); err != nil {
		t.Fatal(err)
	}
	if tp.ServerFailed(3) || tp.NumFailedServers() != 0 {
		t.Fatal("recovery not recorded")
	}
	capacityGraphEqual(t, tp, pristine)

	if err := tp.FailServer(-1); err == nil {
		t.Fatal("negative id must error")
	}
	if err := tp.FailServer(99); err == nil {
		t.Fatal("out-of-range id must error")
	}
	if err := tp.RecoverServer(99); err == nil {
		t.Fatal("out-of-range recover must error")
	}
	// Recover on a topology that never failed anything is a no-op.
	fresh, _ := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, testConfig())
	if err := fresh.RecoverServer(0); err != nil {
		t.Fatal(err)
	}
}

func TestThrottleServer(t *testing.T) {
	tp := NewTestbed()
	pristine := tp.Clone()
	if err := tp.ThrottleServer(5, 0.25); err != nil {
		t.Fatal(err)
	}
	want := pristine.Capacity[5].Scale(0.25)
	if tp.Capacity[5] != want {
		t.Fatalf("throttled capacity = %v, want %v", tp.Capacity[5], want)
	}
	if tp.ServerFailed(5) {
		t.Fatal("throttled server must not count as failed")
	}
	// Re-throttling scales from nominal, not from the already-throttled
	// value; factor 1 restores fully.
	if err := tp.ThrottleServer(5, 0.5); err != nil {
		t.Fatal(err)
	}
	if tp.Capacity[5] != pristine.Capacity[5].Scale(0.5) {
		t.Fatalf("re-throttle compounded: %v", tp.Capacity[5])
	}
	if err := tp.RecoverServer(5); err != nil {
		t.Fatal(err)
	}
	capacityGraphEqual(t, tp, pristine)

	if err := tp.ThrottleServer(5, 0); err == nil {
		t.Fatal("factor 0 must error")
	}
	if err := tp.ThrottleServer(5, 1.5); err == nil {
		t.Fatal("factor > 1 must error")
	}
	if err := tp.ThrottleServer(99, 0.5); err == nil {
		t.Fatal("out-of-range id must error")
	}
	if err := tp.FailServer(5); err != nil {
		t.Fatal(err)
	}
	if err := tp.ThrottleServer(5, 0.5); err == nil {
		t.Fatal("throttling a failed server must error")
	}
}

func TestFailedServersListing(t *testing.T) {
	tp := NewTestbed()
	if tp.FailedServers() != nil || tp.NumFailedServers() != 0 {
		t.Fatal("fresh topology must report no failures")
	}
	for _, id := range []int{7, 2, 11} {
		if err := tp.FailServer(id); err != nil {
			t.Fatal(err)
		}
	}
	got := tp.FailedServers()
	want := []int{2, 7, 11}
	if len(got) != len(want) {
		t.Fatalf("FailedServers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FailedServers = %v, want %v (ascending)", got, want)
		}
	}
	if tp.ServerFailed(-1) || tp.ServerFailed(999) {
		t.Fatal("out-of-range ServerFailed must be false")
	}
}

func TestAverageCapacityExcludesFailedServers(t *testing.T) {
	tp := NewTestbed()
	healthy := tp.AverageCapacity()
	for id := 0; id < 4; id++ {
		if err := tp.FailServer(id); err != nil {
			t.Fatal(err)
		}
	}
	// 12 of 16 identical servers survive: the per-survivor average is
	// unchanged, not dragged down by the zeroed casualties.
	if got := tp.AverageCapacity(); got != healthy {
		t.Fatalf("alive average = %v, want %v", got, healthy)
	}
	for id := 4; id < 16; id++ {
		if err := tp.FailServer(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := tp.AverageCapacity(); got != (resources.Vector{}) {
		t.Fatalf("all-failed average = %v, want zero", got)
	}
}

func TestClonePreservesFailureState(t *testing.T) {
	tp := NewTestbed()
	if err := tp.FailServer(1); err != nil {
		t.Fatal(err)
	}
	cl := tp.Clone()
	if !cl.ServerFailed(1) {
		t.Fatal("clone lost failure flag")
	}
	if err := cl.RecoverServer(1); err != nil {
		t.Fatal(err)
	}
	if cl.Capacity[1] != NewTestbed().Capacity[1] {
		t.Fatal("clone lost nominal capacity snapshot")
	}
	// Clone's recovery must not leak back into the original.
	if !tp.ServerFailed(1) {
		t.Fatal("recovering the clone mutated the original")
	}
}

func TestNodeByID(t *testing.T) {
	tp := NewTestbed()
	for _, n := range tp.Nodes() {
		if got := tp.NodeByID(n.ID); got != n {
			t.Fatalf("NodeByID(%d) = %p, want %p", n.ID, got, n)
		}
	}
	if tp.NodeByID(-42) != nil {
		t.Fatal("unknown id must return nil")
	}
}

func BenchmarkHopDistanceFatTree28(b *testing.B) {
	tp := NewSimulationFatTree()
	n := tp.NumServers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tp.HopDistance(i%n, (i*7+13)%n)
	}
}

// refDepth, refLCA and refHopDistance are the Parent-pointer walks LCA and
// HopDistance used before the build-time chains, kept as the oracle for
// TestPathLinkIDsMatchesPathLinks.
func refDepth(n *Node) int {
	d := 0
	for n.Parent != nil {
		n = n.Parent
		d++
	}
	return d
}

func refLCA(t *Topology, a, b int) *Node {
	na, nb := t.ServerNode[a], t.ServerNode[b]
	for refDepth(na) > refDepth(nb) {
		na = na.Parent
	}
	for refDepth(nb) > refDepth(na) {
		nb = nb.Parent
	}
	for na != nb {
		na, nb = na.Parent, nb.Parent
	}
	return na
}

func refHopDistance(t *Topology, a, b int) int {
	if a == b {
		return 0
	}
	na, nb := t.ServerNode[a], t.ServerNode[b]
	hops := 0
	for refDepth(na) > refDepth(nb) {
		na = na.Parent
		hops++
	}
	for refDepth(nb) > refDepth(na) {
		nb = nb.Parent
		hops++
	}
	for na != nb {
		na, nb = na.Parent, nb.Parent
		hops += 2
	}
	return hops
}

// refPathLinks is the uplink walk from each server up to the reference LCA.
func refPathLinks(t *Topology, a, b int) []*Link {
	if a == b {
		return nil
	}
	lca := refLCA(t, a, b)
	var links []*Link
	for n := t.ServerNode[a]; n != lca; n = n.Parent {
		links = append(links, n.Uplink)
	}
	for n := t.ServerNode[b]; n != lca; n = n.Parent {
		links = append(links, n.Uplink)
	}
	return links
}

// TestPathLinkIDsMatchesPathLinks checks, for every server pair of the
// testbed and the k=4/k=8 fat-trees and of their clones, that PathLinkIDs
// names exactly the links of the Parent-pointer walk in the same order,
// that PathLinks, LCA and HopDistance agree with the walk, and that a
// clone's ids resolve to the clone's own links.
func TestPathLinkIDsMatchesPathLinks(t *testing.T) {
	ft := func(k int) *Topology {
		tp, err := NewFatTree(k, power.Wedge, power.Wedge, power.Wedge, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	for _, base := range []*Topology{NewTestbed(), ft(4), ft(8)} {
		clone := base.Clone()
		for _, tp := range []*Topology{base, clone} {
			links := tp.Links()
			for _, n := range tp.Nodes() {
				if n.Parent == nil {
					if n.LinkID() != -1 {
						t.Fatalf("%s: root link id %d, want -1", tp.Name, n.LinkID())
					}
					continue
				}
				if links[n.LinkID()] != n.Uplink {
					t.Fatalf("%s: node %d's link id %d names another link", tp.Name, n.ID, n.LinkID())
				}
			}
			for a := 0; a < tp.NumServers(); a++ {
				for b := 0; b < tp.NumServers(); b++ {
					want := refPathLinks(tp, a, b)
					up, down := tp.PathLinkIDs(a, b)
					if len(up)+len(down) != len(want) {
						t.Fatalf("%s: PathLinkIDs(%d,%d) has %d+%d links, want %d", tp.Name, a, b, len(up), len(down), len(want))
					}
					for i, id := range append(append([]int32(nil), up...), down...) {
						if links[id] != want[i] {
							t.Fatalf("%s: PathLinkIDs(%d,%d)[%d] = link %d, not the walk's link", tp.Name, a, b, i, id)
						}
					}
					got := tp.PathLinks(a, b)
					if len(got) != len(want) || (want == nil) != (got == nil) {
						t.Fatalf("%s: PathLinks(%d,%d) = %d links, want %d", tp.Name, a, b, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: PathLinks(%d,%d)[%d] differs from the walk", tp.Name, a, b, i)
						}
					}
					if got, want := tp.LCA(a, b), refLCA(tp, a, b); got != want {
						t.Fatalf("%s: LCA(%d,%d) = node %d, want %d", tp.Name, a, b, got.ID, want.ID)
					}
					if got, want := tp.HopDistance(a, b), refHopDistance(tp, a, b); got != want {
						t.Fatalf("%s: HopDistance(%d,%d) = %d, want %d", tp.Name, a, b, got, want)
					}
				}
			}
		}
		for _, l := range clone.Links() {
			for _, o := range base.Links() {
				if l == o {
					t.Fatalf("%s: clone shares a link with the original", base.Name)
				}
			}
		}
	}
	tp := ft(8)
	if allocs := testing.AllocsPerRun(100, func() { tp.PathLinkIDs(3, 100) }); allocs != 0 {
		t.Fatalf("PathLinkIDs allocates %v times per call, want 0", allocs)
	}
}
