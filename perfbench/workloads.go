package main

import (
	"fmt"
	"math"
	"time"

	"goldilocks/internal/chaos"
	"goldilocks/internal/cluster"
	"goldilocks/internal/migrate"
	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/topology"
	"goldilocks/internal/trace"
	"goldilocks/internal/workload"
)

// workloadDef is one benchmark workload: how to generate its epoch inputs
// from a seed, and how long its fixed windows are.
type workloadDef struct {
	name string
	why  string
	// warmup is how many leading epochs the throwaway runner executes
	// during set-up; its report digest must equal the timed loop's digest
	// over the same prefix.
	warmup int
	// quality is the fixed epoch window the quality metrics are computed
	// over. The timed loop always runs at least this many epochs, so the
	// quality metrics depend on the seed only, never on host speed.
	quality int
	// maxEpochs caps the timed loop (0 = no cap): the chaos schedule is
	// generated for exactly this many epochs.
	maxEpochs int
	gen       func(seed int64, rec *recorder) (*inputs, error)
}

// inputs is everything a workload hands the program: the generated epoch
// inputs, cycled when the loop outruns them, plus the configuration that
// turns a fresh topology into a runner.
type inputs struct {
	epochs  []cluster.EpochInput
	newTopo func() (*topology.Topology, error)
	policy  scheduler.Policy
	copts   cluster.Options
	// chaosCfg, when set, drives a seeded fault injector between epochs.
	chaosCfg *chaos.GenConfig
	// journal write-ahead journals every epoch (fsync per record).
	journal bool
}

// input returns the epoch-e input, cycling the generated series.
func (in *inputs) input(e int) cluster.EpochInput { return in.epochs[e%len(in.epochs)] }

var workloads = []workloadDef{
	{
		name:    "testbed-diurnal",
		why:     "Fig. 9 shape at paper scale: per-epoch fixed costs (RNG reseeding, FM heap, unit keys, allocations) dominate",
		warmup:  60,
		quality: 60,
		gen:     genTestbedDiurnal,
	},
	{
		name:    "fabric-search",
		why:     "Fig. 13 shape, 9,216 containers: the only workload that runs the in-level parallel partitioner",
		warmup:  1,
		quality: 3,
		gen:     genFabric(scheduler.Goldilocks{}),
	},
	{
		name:    "fabric-search-borg",
		why:     "same fabric inputs under Borg: skips the partitioner, accounting dominates",
		warmup:  1,
		quality: 22,
		gen:     genFabric(scheduler.Borg{}),
	},
	{
		name:      "chaos-journal",
		why:       "faults, solve stragglers, migration retry, admission control and an fsync'd WAL beside the solve",
		warmup:    60,
		quality:   1000,
		maxEpochs: chaosEpochs,
		gen:       genChaosJournal,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// testbed-diurnal: 176 Twitter containers with the ×4 CPU calibration on
// the 16-server testbed, Goldilocks policy, one Wikipedia diurnal day of
// 60 one-minute epochs, repeated.
func genTestbedDiurnal(seed int64, rec *recorder) (*inputs, error) {
	const containers, day = 176, 60
	id := rec.begin("workload.gen")
	base := workload.TwitterWorkload(containers, seed)
	for i := range base.Containers {
		base.Containers[i].Demand[resources.CPU] *= 4 // experiments.Fig9's calibration
		base.Containers[i].Reserved = base.Containers[i].Demand
	}
	wiki := workload.DefaultWikipedia()
	wiki.PeriodMinutes = day
	in := &inputs{
		newTopo: func() (*topology.Topology, error) { return topology.NewTestbed(), nil },
		policy:  scheduler.Goldilocks{},
		copts:   cluster.DefaultOptions(),
	}
	for e := 0; e < day; e++ {
		rps := wiki.RPS(e)
		in.epochs = append(in.epochs, cluster.EpochInput{Spec: base.Scaled(math.Max(rps/wiki.MaxRPS, 0.1)), RPS: rps})
	}
	rec.end(id)
	return in, nil
}

// fabricArity and fabricReplicas give the Fig. 13 shape: a k=16 fat-tree
// (1,024 servers) hosting the synthesized search trace replicated 9×.
const (
	fabricArity    = 16
	fabricReplicas = 9
	fabricEPVMUtil = 0.25
	fabricWindow   = 22 // Fig. 13's 88-hour window of 4-hour epochs
)

// genFabric builds the Fig. 13 inputs (experiments.buildFig13Workload's
// recipe) for the given policy: the search trace synthesized at the
// fabric's scale, replicated, CPU-normalized to the target E-PVM
// utilization, under a 0.75–1.25 diurnal load factor.
func genFabric(policy scheduler.Policy) func(int64, *recorder) (*inputs, error) {
	return func(seed int64, rec *recorder) (*inputs, error) {
		cfg := topology.Config{
			ServerCapacity: resources.New(7200, 6*1024*1024, 10000),
			ServerModel:    power.DellR940,
			ServerLinkMbps: 10000,
		}
		newTopo := func() (*topology.Topology, error) {
			return topology.NewFatTree(fabricArity, power.Altoline6940, power.Altoline6940, power.Altoline6940, cfg)
		}
		servers := fabricArity * fabricArity * fabricArity / 4

		id := rec.begin("trace.synth")
		base := trace.Synthesize(trace.SearchTraceOptions{
			Vertices: servers,
			Edges:    trace.DefaultSearchTrace().Edges * servers / 5488,
			Seed:     seed,
		})
		rec.end(id)

		id = rec.begin("workload.gen")
		spec := &workload.Spec{}
		for r := 0; r < fabricReplicas; r++ {
			offset := len(spec.Containers)
			for _, c := range base.Containers {
				c.ID += offset
				spec.Containers = append(spec.Containers, c)
			}
			for _, f := range base.Flows {
				spec.Flows = append(spec.Flows, workload.Flow{A: f.A + offset, B: f.B + offset, Count: f.Count})
			}
		}
		totalCPU := 0.0
		for _, c := range spec.Containers {
			totalCPU += c.Demand[resources.CPU]
		}
		if totalCPU <= 0 {
			rec.end(id)
			return nil, fmt.Errorf("fabric: synthesized trace has no CPU demand")
		}
		f := fabricEPVMUtil * float64(servers) * 7200 / totalCPU
		for i := range spec.Containers {
			spec.Containers[i].Demand[resources.CPU] *= f
			spec.Containers[i].Reserved = spec.Containers[i].Demand.Scale(1.5)
		}
		copts := cluster.DefaultOptions()
		copts.EpochLength = 4 * time.Hour
		copts.FocusApp = workload.WebSearch.Name
		copts.PerHopLatencyMS = 0.2
		in := &inputs{newTopo: newTopo, policy: policy, copts: copts}
		for e := 0; e < fabricWindow; e++ {
			scaled := spec.Scaled(1 + 0.25*math.Sin(2*math.Pi*float64(e)/fabricWindow))
			cpu := 0.0
			for _, c := range scaled.Containers {
				cpu += c.Demand[resources.CPU]
			}
			// ~24% CPU per query/s on an index-serving node (Fig. 12(a)).
			in.epochs = append(in.epochs, cluster.EpochInput{Spec: scaled, RPS: cpu / 24})
		}
		rec.end(id)
		return in, nil
	}
}

// chaosEpochs is the chaos-journal fault schedule's length in epochs.
const chaosEpochs = 10000

// chaosPopulationSeed is experiments.DefaultCrashChaos's seed. The cell's
// 48-container population is fixed; the benchmark seed drives the fault
// schedule and the migration-retry draws. (Drawing the population from the
// seed as well moved tct_ms_mean by 1.4–2.8 ms across seeds: with 19
// Twitter containers, the population's shape sets the latency.)
const chaosPopulationSeed = 31

// chaos-journal: experiments.DefaultCrashChaos's cell — 48 mixture
// containers on the testbed under seeded rack/link faults, solve
// stragglers against a 40 ms modeled deadline and migration flakes with
// seeded retry — with the WAL journal on. The fault schedule covers the
// workload's maxEpochs.
func genChaosJournal(seed int64, rec *recorder) (*inputs, error) {
	const epochLen = 10 * time.Minute
	id := rec.begin("workload.gen")
	spec := workload.MixtureWorkload(48, chaosPopulationSeed)
	rec.end(id)
	copts := cluster.DefaultOptions()
	copts.EpochLength = epochLen
	copts.SolveDeadline = 40 * time.Millisecond
	copts.MigrateRetry = migrate.RetryPolicy{MaxAttempts: 4, BaseBackoff: 250 * time.Millisecond, FlakeProb: 0.05, Seed: uint64(seed)}
	return &inputs{
		epochs:  []cluster.EpochInput{{Spec: spec, RPS: 1000}},
		newTopo: func() (*topology.Topology, error) { return topology.NewTestbed(), nil },
		policy:  scheduler.Goldilocks{},
		copts:   copts,
		chaosCfg: &chaos.GenConfig{
			Seed:                   seed,
			Horizon:                chaosEpochs * epochLen,
			MTTF:                   5 * epochLen,
			MTTR:                   epochLen * 3 / 2,
			BurstSize:              2,
			RackFaultFraction:      0.20,
			LinkFaultFraction:      0.10,
			SolveStragglerFraction: 0.15,
			MigrationFlakeFraction: 0.15,
		},
		journal: true,
	}, nil
}
