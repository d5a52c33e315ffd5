package scheduler

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"goldilocks/internal/resources"
)

// usableCapacities precomputes each server's capacity scaled by the
// per-dimension ceilings: the cap applies to CPU and network, memory is
// bounded by its physical size only (resident sets have no power knee).
func usableCapacities(caps []resources.Vector, cpuNetCap float64) []resources.Vector {
	ceil := resources.UtilizationCaps(cpuNetCap)
	out := make([]resources.Vector, len(caps))
	for i, c := range caps {
		out[i] = c.PerDimScale(ceil)
	}
	return out
}

// EPVM is the opportunity-cost baseline [17]: every container lands on the
// currently least-utilized server, and no server is ever powered off. It
// spreads load thin — worst power, generous headroom. A lazily-refreshed
// min-heap on utilization keeps placement O(n log s) for the large-scale
// simulation.
type EPVM struct{}

// Name implements Policy.
func (EPVM) Name() string { return "E-PVM" }

// utilHeap is a min-heap of (utilization, server) with lazy invalidation.
type utilHeapItem struct {
	server int
	util   float64
	stamp  uint64
}

type utilHeap []utilHeapItem

func (h utilHeap) Len() int            { return len(h) }
func (h utilHeap) Less(i, j int) bool  { return h[i].util < h[j].util }
func (h utilHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *utilHeap) Push(x interface{}) { *h = append(*h, x.(utilHeapItem)) }
func (h *utilHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Place implements Policy.
func (EPVM) Place(req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	span := req.Span.Child("e-pvm")
	defer span.End()
	req.Telemetry.Counter("scheduler_place_total").Inc()
	numServers := req.Topo.NumServers()
	load := newServerLoad(numServers)
	usable := usableCapacities(req.Topo.Capacity, 1.0)
	placement := make([]int, req.Spec.NumContainers())

	stamps := make([]uint64, numServers)
	h := make(utilHeap, 0, numServers)
	for s := 0; s < numServers; s++ {
		h = append(h, utilHeapItem{server: s, util: 0})
	}
	heap.Init(&h)

	for i, c := range req.Spec.Containers {
		var skipped []utilHeapItem
		best := -1
		for h.Len() > 0 {
			it := heap.Pop(&h).(utilHeapItem)
			if it.stamp != stamps[it.server] {
				continue // stale
			}
			if !load.fits(it.server, c.Demand, usable[it.server]) {
				skipped = append(skipped, it)
				continue
			}
			best = it.server
			break
		}
		// Servers that could not fit this container may fit the next.
		for _, it := range skipped {
			heap.Push(&h, it)
		}
		if best < 0 {
			return Result{}, fmt.Errorf("%w: container %d (%v)", ErrNoCapacity, i, c.Demand)
		}
		placement[i] = best
		load.add(best, c.Demand)
		stamps[best]++
		heap.Push(&h, utilHeapItem{
			server: best,
			util:   load.utilization(best, req.Topo.Capacity[best]),
			stamp:  stamps[best],
		})
	}
	auditPlaced(req, EPVM{}.Name(), placement, 1.0)
	return Result{Placement: placement, AllServersOn: true, TargetUtil: 1.0}, nil
}

// packer is the candidate scan shared by the packing baselines (mPP, Borg,
// RC-Informed). A policy visits its containers in a fixed order and, for
// the k-th, asks feasible for the servers that can take its demand. The
// candidates come in a fixed order: every active server in activation
// order, then, per capacity class in canonical order, the lowest-id server
// never placed on (all empty servers of one class are interchangeable). On
// a homogeneous 5488-server topology this cuts each placement step from
// O(servers) to O(active).
//
// Closed servers are pruned. floor[k] is the per-dimension minimum demand
// over containers k… in the policy's order. If used[s] + floor[k] does not
// fit server s's limit, no container from k on fits s: each of their
// demands is at least floor[k] in every dimension, float addition is
// monotone, and used[s] grows only by what is placed on s. Such a server
// is dropped from active for good. active is compacted in place, so the
// remaining servers keep their order and every tie-break over the
// candidates is the one the full scan makes. A zero-demand container makes
// floor zero at and before its position, which disables pruning until it
// has been placed.
type packer struct {
	load    *serverLoad
	limit   []resources.Vector // per-server fit limit the policy checks
	floor   []resources.Vector // floor[k]: per-dimension min demand of containers k…
	on      []bool             // server has been placed on
	active  []int              // on servers not yet closed, in activation order
	classes []resources.Vector // distinct capacities, ascending
	empty   [][]int            // per class, ascending ids of servers never placed on
	feas    []int              // feasible's result, reused across calls
}

// newPacker builds the scan for n containers whose k-th demand in the
// policy's order is demand(k), on servers of the given physical
// capacities with the fit limits the policy checks against.
func newPacker(load *serverLoad, capacities, limit []resources.Vector, n int, demand func(k int) resources.Vector) *packer {
	numServers := len(capacities)
	p := &packer{
		load:   load,
		limit:  limit,
		floor:  make([]resources.Vector, n),
		on:     make([]bool, numServers),
		active: make([]int, 0, numServers),
		feas:   make([]int, 0, numServers),
	}
	for k := n - 1; k >= 0; k-- {
		p.floor[k] = demand(k)
		if k+1 < n {
			p.floor[k] = p.floor[k].Min(p.floor[k+1])
		}
	}
	class := make(map[resources.Vector]int)
	for _, c := range capacities {
		if _, ok := class[c]; !ok {
			class[c] = len(p.classes)
			p.classes = append(p.classes, c)
		}
	}
	// Canonical class order (ascending lexicographic), not first-seen
	// order: candidate iteration — and therefore every tie-break among
	// equally-scored empty servers — must depend on the capacity classes
	// present, never on how the topology happened to order its servers.
	sort.Slice(p.classes, func(i, j int) bool {
		a, b := p.classes[i], p.classes[j]
		for d := range a {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
	for i, c := range p.classes {
		class[c] = i
	}
	p.empty = make([][]int, len(p.classes))
	for s, c := range capacities {
		p.empty[class[c]] = append(p.empty[class[c]], s)
	}
	return p
}

// feasible returns, in candidate order, the servers where demand d — the
// k-th container's — fits, and drops the active servers that are closed
// for containers k… from the scan. The returned slice is reused across
// calls.
//
//goldilocks:hotpath
func (p *packer) feasible(k int, d resources.Vector) []int {
	used, floor := p.load.used, &p.floor[k]
	out := p.feas[:0]
	open := p.active[:0]
	for _, s := range p.active {
		if fitsAfter(&used[s], &d, &p.limit[s]) {
			out = append(out, s)
		} else if !fitsAfter(&used[s], floor, &p.limit[s]) {
			continue // closed: nothing from container k on fits s
		}
		open = append(open, s)
	}
	p.active = open
	for _, q := range p.empty {
		if len(q) > 0 && fitsAfter(&used[q[0]], &d, &p.limit[q[0]]) {
			out = append(out, q[0])
		}
	}
	p.feas = out
	return out
}

// fitsAfter reports whether used + d fits within limit: the same sums and
// comparisons as used.Add(d).Fits(limit), without copying the vectors.
func fitsAfter(used, d, limit *resources.Vector) bool {
	for i := range used {
		if used[i]+d[i] > limit[i] {
			return false
		}
	}
	return true
}

// place commits a container to a server, activating it on its first use.
func (p *packer) place(server int, d resources.Vector) {
	if !p.on[server] {
		p.on[server] = true
		p.active = append(p.active, server)
		for c, q := range p.empty {
			if len(q) > 0 && q[0] == server {
				p.empty[c] = q[1:]
				break
			}
		}
	}
	p.load.add(server, d)
}

// MPP is pMapper's min-power-increase packing [16]: containers are taken
// in First Fit Decreasing order and placed on the feasible server with the
// smallest marginal power per unit of utilization, packing up to 95%.
type MPP struct {
	// UtilizationCap defaults to 0.95 (the paper's mPP setting).
	UtilizationCap float64
}

// Name implements Policy.
func (MPP) Name() string { return "mPP" }

// Place implements Policy.
func (p MPP) Place(req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	span := req.Span.Child("mpp")
	defer span.End()
	req.Telemetry.Counter("scheduler_place_total").Inc()
	cap := p.UtilizationCap
	if cap <= 0 {
		cap = 0.95
	}
	load := newServerLoad(req.Topo.NumServers())
	order := demandOrder(req.Spec, req.Topo.AverageCapacity())
	pk := newPacker(load, req.Topo.Capacity, usableCapacities(req.Topo.Capacity, cap), len(order),
		func(k int) resources.Vector { return req.Spec.Containers[order[k]].Demand })
	placement := make([]int, req.Spec.NumContainers())
	for k, i := range order {
		c := req.Spec.Containers[i]
		best, bestSlope := -1, math.Inf(1)
		bestActive := false
		for _, s := range pk.feasible(k, c.Demand) {
			active := !load.used[s].IsZero()
			slope := req.Topo.Server[s].MarginalPower(load.utilization(s, req.Topo.Capacity[s]))
			// An already-on server always beats powering a new one
			// on (the new server adds its idle draw); among equals,
			// pick the smallest power slope.
			better := false
			switch {
			case best < 0:
				better = true
			case active != bestActive:
				better = active
			default:
				better = slope < bestSlope
			}
			if better {
				best, bestSlope, bestActive = s, slope, active
			}
		}
		if best < 0 {
			return Result{}, fmt.Errorf("%w: container %d (%v)", ErrNoCapacity, i, c.Demand)
		}
		placement[i] = best
		pk.place(best, c.Demand)
	}
	auditPlaced(req, p.Name(), placement, cap)
	return Result{Placement: placement, TargetUtil: cap}, nil
}

// Borg implements the task-packing score of Google's Borg [14]: among
// feasible servers it minimizes *stranded resources* — the imbalance
// between leftover CPU and leftover memory that makes a machine unusable
// for future tasks — preferring already-busy machines (best fit), packing
// to 95%.
type Borg struct {
	// UtilizationCap defaults to 0.95.
	UtilizationCap float64
}

// Name implements Policy.
func (Borg) Name() string { return "Borg" }

// Place implements Policy.
func (p Borg) Place(req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	span := req.Span.Child("borg")
	defer span.End()
	req.Telemetry.Counter("scheduler_place_total").Inc()
	cap := p.UtilizationCap
	if cap <= 0 {
		cap = 0.95
	}
	load := newServerLoad(req.Topo.NumServers())
	order := demandOrder(req.Spec, req.Topo.AverageCapacity())
	pk := newPacker(load, req.Topo.Capacity, usableCapacities(req.Topo.Capacity, cap), len(order),
		func(k int) resources.Vector { return req.Spec.Containers[order[k]].Demand })
	placement := make([]int, req.Spec.NumContainers())
	for k, i := range order {
		c := req.Spec.Containers[i]
		best, bestScore := -1, math.Inf(1)
		for _, s := range pk.feasible(k, c.Demand) {
			score := borgScore(load.used[s].Add(c.Demand), req.Topo.Capacity[s], load.used[s].IsZero())
			if score < bestScore {
				best, bestScore = s, score
			}
		}
		if best < 0 {
			return Result{}, fmt.Errorf("%w: container %d (%v)", ErrNoCapacity, i, c.Demand)
		}
		placement[i] = best
		pk.place(best, c.Demand)
	}
	auditPlaced(req, p.Name(), placement, cap)
	return Result{Placement: placement, TargetUtil: cap}, nil
}

// borgScore is lower for better placements: it penalizes stranded
// resources (|free CPU − free memory| in normalized terms), rewards high
// fill (best fit keeps machines either full or empty), and strongly
// penalizes waking an empty machine.
func borgScore(usedAfter, capacity resources.Vector, wasEmpty bool) float64 {
	u := usedAfter.Utilization(capacity)
	freeCPU := 1 - u[resources.CPU]
	freeMem := 1 - u[resources.Memory]
	stranded := math.Abs(freeCPU - freeMem)
	fill := (freeCPU + freeMem) / 2 // lower is fuller
	score := stranded + 0.5*fill
	if wasEmpty {
		score += 10 // powering on a machine strands a whole machine
	}
	return score
}

// RCInformed is Resource Central's bucket policy [15]: placement is driven
// by *reserved* resources (the container's nominal allocation, not its
// live utilization), with the CPU axis oversubscribed to 125%. Buckets are
// filled first-fit; because reservations don't shrink at low load, the
// active server count tracks the container population, not the offered
// load.
type RCInformed struct {
	// Oversubscription defaults to 1.25 (125% CPU).
	Oversubscription float64
}

// Name implements Policy.
func (RCInformed) Name() string { return "RC-Informed" }

// Place implements Policy.
func (p RCInformed) Place(req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	span := req.Span.Child("rc-informed")
	defer span.End()
	req.Telemetry.Counter("scheduler_place_total").Inc()
	over := p.Oversubscription
	if over <= 0 {
		over = 1.25
	}
	load := newServerLoad(req.Topo.NumServers())
	buckets := make([]resources.Vector, req.Topo.NumServers())
	for s, c := range req.Topo.Capacity {
		buckets[s] = resources.OversubscribedCapacity(c, over)
	}
	// Buckets fill in arrival order, and arrivals interleave across
	// tenants — not in the workload's adjacency order. A deterministic
	// hash shuffle models that (and is what denies bucket policies the
	// locality Goldilocks constructs deliberately).
	order := make([]int, req.Spec.NumContainers())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return idHash(req.Spec.Containers[order[a]].ID) < idHash(req.Spec.Containers[order[b]].ID)
	})
	// Reservations come from what the owner asked for at container
	// creation, not the live demand.
	pk := newPacker(load, req.Topo.Capacity, buckets, len(order),
		func(k int) resources.Vector { return req.Spec.Containers[order[k]].Reservation() })
	placement := make([]int, req.Spec.NumContainers())
	for k, i := range order {
		reserved := req.Spec.Containers[i].Reservation()
		// First fit over lowest-id buckets with room: active servers
		// plus the lowest empty one per class.
		best := -1
		for _, s := range pk.feasible(k, reserved) {
			if best < 0 || s < best {
				best = s
			}
		}
		if best < 0 {
			return Result{}, fmt.Errorf("%w: container %d (reserved %v)", ErrNoCapacity, i, reserved)
		}
		placement[i] = best
		pk.place(best, reserved)
	}
	auditPlaced(req, p.Name(), placement, over)
	return Result{Placement: placement, TargetUtil: over}, nil
}

// idHash is a small integer mix (splitmix64 finalizer) used to derive the
// deterministic arrival order of RC-Informed's buckets.
func idHash(id int) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
