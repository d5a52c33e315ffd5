package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"goldilocks/internal/chaos"
	"goldilocks/internal/cluster"
	"goldilocks/internal/journal"
	"goldilocks/internal/partition"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/sim"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// instance is one fresh copy of the system under test: its own topology
// (the fault injector mutates it), injector, journal and runner.
type instance struct {
	in      *inputs
	topo    *topology.Topology
	inj     *chaos.Injector
	w       *journal.Writer
	walPath string
	runner  *cluster.Runner
	probe   *probePolicy // traced runs only
}

// newInstance builds an instance on topo. The schedule is nil for
// workloads without faults; walPath is used only by journaled workloads;
// traced wraps the policy in the timing decorator.
func newInstance(in *inputs, topo *topology.Topology, sched *chaos.Schedule, walPath string, traced bool, rec *recorder) (*instance, error) {
	inst := &instance{in: in, topo: topo, walPath: walPath}
	copts := in.copts
	if sched != nil {
		id := rec.begin("chaos.new_injector")
		inj, err := chaos.NewInjector(&sim.Engine{}, topo, *sched)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("chaos injector: %w", err)
		}
		inst.inj = inj
	}
	if in.journal {
		id := rec.begin("journal.create")
		w, err := journal.Create(walPath, nil)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		inst.w, copts.Journal = w, w
	}
	policy := in.policy
	if traced {
		inst.probe = &probePolicy{inner: policy, rec: rec, servers: topo.NumServers()}
		_, inst.probe.partitions = policy.(scheduler.Goldilocks)
		policy = inst.probe
	}
	id := rec.begin("cluster.new_runner")
	inst.runner = cluster.NewRunner(topo, policy, copts)
	rec.end(id)
	if inst.w != nil {
		id := rec.begin("journal.checkpoint")
		// Any configuration hash will do: the benchmark never resumes.
		err := cluster.WriteCheckpoint(inst.w, 1, inst.runner.Snapshot())
		rec.end(id)
		if err != nil {
			return nil, err
		}
	}
	return inst, nil
}

func (inst *instance) close() error {
	if inst.w == nil {
		return nil
	}
	return inst.w.Close()
}

// probePolicy is the scheduler.Policy decorator of the traced run: it
// times every Place call as a "scheduler.place" span, counts calls and
// successes (admission-control probes that fail are wasted attempts), and
// checks every placement it returns. The runner only calls it on rung-0
// epochs: rungs 1–2 build their own policy.
type probePolicy struct {
	inner      scheduler.Policy
	rec        *recorder
	servers    int
	partitions bool // the inner policy partitions (Goldilocks)

	calls, ok int
	errs      []error
	// lastSpec is the spec of this epoch's last successful Place call,
	// the graph the partition replay re-solves.
	lastSpec *workload.Spec
}

func (p *probePolicy) Name() string { return p.inner.Name() }

func (p *probePolicy) Place(req scheduler.Request) (scheduler.Result, error) {
	id := p.rec.begin("scheduler.place")
	res, err := p.inner.Place(req)
	p.rec.end(id)
	p.calls++
	if err != nil {
		return res, err
	}
	p.ok++
	p.lastSpec = req.Spec
	if len(res.Placement) != len(req.Spec.Containers) {
		p.errs = append(p.errs, fmt.Errorf("placement has %d entries for %d containers", len(res.Placement), len(req.Spec.Containers)))
	}
	for i, s := range res.Placement {
		if s < -1 || s >= p.servers {
			p.errs = append(p.errs, fmt.Errorf("container %d placed on server %d of %d", i, s, p.servers))
			break
		}
	}
	return res, nil
}

// quality accumulates the paper's axes over the fixed quality window.
type quality struct {
	epochs                                     int
	powerW, tctMS, energyJ, requests, availSum float64
	migrations, shed, offered                  int
}

func (q *quality) add(rep cluster.EpochReport, offered int) {
	q.epochs++
	q.powerW += rep.TotalPowerW
	q.tctMS += rep.MeanTCTMS
	q.energyJ += rep.EnergyJ
	q.requests += rep.Requests
	q.availSum += rep.Availability
	q.migrations += rep.Migrations
	q.shed += rep.AdmissionRejected
	q.offered += offered
}

// loopOut is what one timed loop measured and checked.
type loopOut struct {
	epochs    int
	wall      time.Duration
	epochDurs []time.Duration
	digest    uint64
	prefix    uint64 // digest after the workload's warm-up prefix
	qual      quality
	failed    int
	errs      []error

	// Per-layer counts over all epochs of the loop.
	rungs                              [3]int
	displaced, moves, retries, dropped int
	faults, replays, leaves            int
	cut                                float64
	allocs, gcCycles                   uint64
	gcCPU, totalCPU                    float64
	// liveMB is the live heap the GC last measured, sampled every
	// heapSampleEvery during the loop.
	liveMB []float64
}

func (o *loopOut) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err)
	}
}

var sampleNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// heapSampleEvery is the live-heap sampling period: short against a GC
// cycle on every workload, so the samples weight each cycle's live heap by
// how long it lasted.
const heapSampleEvery = 5 * time.Millisecond

// heapSampler records the live heap the GC last measured
// (/gc/heap/live:bytes) at a fixed period until finish.
type heapSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), mb: make([]float64, 0, 1<<16)}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				h.mb = append(h.mb, float64(s[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it to exit and returns the samples.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.mb
}

// runLoop runs the closed epoch loop on inst: epoch e+1 starts only after
// epoch e returns. It runs at least minEpochs, then stops once budget has
// elapsed or maxEpochs (when > 0) have run. With a recorder, every call
// into a layer becomes a span and each rung-0 Goldilocks epoch is followed
// by a partition replay (never counted in epoch time).
func runLoop(inst *instance, def workloadDef, minEpochs, maxEpochs int, budget time.Duration, rec *recorder) loopOut {
	// Room for every epoch up front, so the live heap does not depend on
	// how many epochs the host manages to run.
	out := loopOut{epochDurs: make([]time.Duration, 0, 1<<16)}
	dig := newDigest()
	servers := inst.topo.NumServers()
	epochLen := inst.in.copts.EpochLength
	samples := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	cycles0, gc0, cpu0 := samples[0].Value.Uint64(), samples[1].Value.Float64(), samples[2].Value.Float64()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	heap := startHeapSampler(heapSampleEvery)
	start := time.Now()
	for e := 0; ; e++ {
		if maxEpochs > 0 && e >= maxEpochs {
			break
		}
		if e >= minEpochs && time.Since(start) >= budget {
			break
		}
		rec.setEpoch(e)
		in := inst.in.input(e)
		if inst.inj != nil {
			n0 := len(inst.inj.Log())
			id := rec.begin("chaos.advance")
			inst.inj.AdvanceTo(time.Duration(e) * epochLen)
			rec.end(id)
			for _, r := range inst.inj.Log()[n0:] {
				if !r.Recovered {
					out.faults++
				}
			}
			in.SolveCostFactor = inst.inj.SolveInflation()
			in.MigrationFlakeProb = inst.inj.MigrationFlakeProb()
		}
		nerr := 0
		if inst.probe != nil {
			inst.probe.lastSpec = nil
			nerr = len(inst.probe.errs)
		}

		id := rec.begin("cluster.epoch")
		t0 := time.Now()
		rep, err := inst.runner.RunEpoch(in)
		d := time.Since(t0)
		rec.end(id)
		out.epochs++
		out.epochDurs = append(out.epochDurs, d)
		if err != nil {
			out.fail(fmt.Errorf("epoch %d: %w", e, err))
			break
		}

		bad := checkReport(rep, servers, len(in.Spec.Containers))
		if bad == nil && inst.probe != nil && len(inst.probe.errs) > nerr {
			bad = fmt.Errorf("epoch %d: %w", e, inst.probe.errs[nerr])
		}
		dig.add(rep)
		if e+1 == def.warmup {
			out.prefix = dig.sum()
		}
		if e < def.quality {
			out.qual.add(rep, len(in.Spec.Containers))
		}
		if rep.LadderRung >= 0 && rep.LadderRung < len(out.rungs) {
			out.rungs[rep.LadderRung]++
		}
		out.displaced += rep.DisplacedContainers
		out.moves += rep.Migrations
		out.retries += rep.MigrationRetries
		out.dropped += rep.DroppedMigrations

		if p := inst.probe; p != nil && p.partitions && rep.LadderRung == cluster.RungFull && p.lastSpec != nil {
			if err := out.replay(inst, p.lastSpec, rep.SpillTarget, rec); err != nil && bad == nil {
				bad = fmt.Errorf("epoch %d: partition replay: %w", e, err)
			}
		}
		if bad != nil {
			out.fail(bad)
		}
	}
	out.wall = time.Since(start)
	out.liveMB = heap.finish()

	runtime.ReadMemStats(&ms1)
	metrics.Read(samples)
	out.allocs = ms1.Mallocs - ms0.Mallocs
	out.gcCycles = samples[0].Value.Uint64() - cycles0
	out.gcCPU = samples[1].Value.Float64() - gc0
	out.totalCPU = samples[2].Value.Float64() - cpu0
	out.digest = dig.sum()
	return out
}

// replay re-solves one epoch's partition outside the epoch: a single
// partition.PartitionToFit on the placed spec's graph, with the options
// scheduler.Goldilocks uses, at the placement's final spill target.
func (o *loopOut) replay(inst *instance, spec *workload.Spec, target float64, rec *recorder) error {
	id := rec.begin("workload.graph")
	g := spec.Graph()
	rec.end(id)
	popts := partition.DefaultOptions()
	popts.BalanceEps = 0.03
	if pods := len(inst.topo.SubtreesAtLevel(topology.LevelPod)); g.NumVertices() >= partition.ShardAutoMinN && pods >= 2 {
		popts.ShardCount = pods
	}
	usable := inst.topo.AverageCapacity().PerDimScale(resources.UtilizationCaps(target))
	id = rec.begin("partition.replay")
	tree, err := partition.PartitionToFit(g, usable, 1.0, popts)
	rec.end(id)
	if err != nil {
		return err
	}
	o.replays++
	o.leaves += len(tree.Leaves)
	o.cut += tree.Cut
	return nil
}
