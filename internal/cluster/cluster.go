// Package cluster is the epoch-based data center simulator the testbed
// experiments run on (Figs. 9–11): each epoch a scheduling policy places
// the current workload, idle servers and switches are powered down (with
// backup paths retained), and the package accounts power, task completion
// time, migrations and energy-per-request exactly along the paper's four
// reported axes.
//
// Task completion time follows the paper's two levers: per-request service
// time plus multi-core queueing delay at the destination server (M/M/c via
// the Sakasegawa approximation — many-core servers queue negligibly below
// the saturation knee, which is exactly why the 70% PEE packing keeps its
// latency while 95% packing does not) plus congestion-inflated per-hop
// network latency over the container pair's path (locality → few hops).
package cluster

import (
	"context"
	"fmt"
	"math"
	rtrace "runtime/trace"
	"slices"
	"time"

	"goldilocks/internal/journal"
	"goldilocks/internal/metrics"
	"goldilocks/internal/migrate"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// Options tunes the simulator.
type Options struct {
	// EpochLength is the wall time one epoch represents.
	EpochLength time.Duration
	// PerHopLatencyMS is the network latency contributed by each link on
	// a request's path.
	PerHopLatencyMS float64
	// MaxQueueUtil clamps the M/M/1 utilization to keep the queueing
	// term finite; utilizations at or above it saturate to the clamp.
	MaxQueueUtil float64
	// MaxLinkUtil clamps per-link utilization in the congestion term.
	MaxLinkUtil float64
	// FocusApp, when non-empty, restricts TCT accounting to flows whose
	// endpoints both run the named application (the paper reports the
	// latency of Twitter queries specifically).
	FocusApp string
	// BackupSwitches is the number of extra aggregation/core switches
	// kept powered per group as backup paths (§II: "a few extra backup
	// paths are reserved for bursty traffic").
	BackupSwitches int
	// SLATargetMS, when positive, marks request latencies above it as
	// SLA violations (reported per epoch as the violating share of
	// request weight). The paper's motivation: packing to ~100% leaves
	// "very little headroom for spikes, and the task completion times
	// are compromised".
	SLATargetMS float64
	// Telemetry, when non-nil, records one root span per epoch (with
	// snapshot/place/account/recovery phase children and runtime/trace
	// regions aligned to them), per-epoch metrics, and the audit decisions
	// behind goldilocks-sim -explain. Nil disables observability at zero
	// cost.
	Telemetry *telemetry.Session

	// Control-plane robustness knobs (see DESIGN.md §5.1.8).

	// SolveDeadline, when positive, budgets each epoch's *modeled* solve
	// cost: if the configured policy's modeled cost exceeds it, the runner
	// walks the degradation ladder — warm-start repair, then greedy
	// first-fit — until a rung fits (greedy is the floor and always runs).
	// The cost model is deterministic (a function of workload size, never
	// wall clock), so the ladder choice replays identically after a crash.
	SolveDeadline time.Duration
	// MigrateRetry is the retry-policy template for migration transfers.
	// Its Seed is mixed with the epoch number so every epoch draws a fresh
	// but reproducible failure/jitter stream. The zero value disables
	// transfer simulation (legacy diff-only migration accounting).
	MigrateRetry migrate.RetryPolicy
	// Journal, when non-nil, write-ahead journals every epoch: intent
	// records (epoch-begin, placement, migration waves) go to disk before
	// their effects are applied, and a commit record seals the epoch with
	// the post-epoch runner state. See RecoverJournal for the resume side.
	Journal *journal.Writer
	// CrashAfterRecords, when positive, simulates a control-plane kill:
	// once that many journal records have been appended by this runner,
	// RunEpoch aborts with ErrSimulatedCrash immediately after the record
	// reaches disk — the knob the chaos scheduler-crash fault and the
	// crash-replay guard drive to tear an epoch at any record boundary.
	CrashAfterRecords int
}

// DefaultOptions matches the testbed experiments.
func DefaultOptions() Options {
	return Options{
		EpochLength:     time.Minute,
		PerHopLatencyMS: 0.8,
		MaxQueueUtil:    0.98,
		MaxLinkUtil:     0.90,
		FocusApp:        workload.TwitterCaching.Name,
		BackupSwitches:  1,
	}
}

// EpochInput is one epoch's workload.
type EpochInput struct {
	Spec *workload.Spec
	// RPS is the aggregate *offered* request rate. The served rate is
	// closed-loop: each query connection issues requests back-to-back,
	// so a connection's throughput is capped at 1/TCT — long completion
	// times directly shrink served requests and inflate energy per
	// request (the Fig. 9(d)/11(c) effect).
	RPS float64
	// Burst scales the *actual* CPU/network load relative to the demand
	// the scheduler placed against (default 1.0). A mid-epoch spike
	// (Burst > 1) is exactly the scenario PEE headroom protects against:
	// 95%-packed servers saturate while 70%-packed servers absorb it.
	Burst float64
	// SolveCostFactor multiplies this epoch's modeled solve cost (≤ 0
	// means 1). The chaos injector's solve-straggler fault feeds it: a
	// slow control plane pushes the epoch down the degradation ladder.
	SolveCostFactor float64
	// MigrationFlakeProb, when positive, overrides the retry policy's
	// per-attempt transfer failure probability for this epoch — the chaos
	// migration-flake window.
	MigrationFlakeProb float64
}

// EpochReport is the simulator's output for one epoch: the four axes of
// Figs. 9/10 plus migration accounting.
type EpochReport struct {
	Epoch             int
	Time              time.Duration
	Policy            string
	ActiveServers     int
	ServerPowerW      float64
	NetworkPowerW     float64
	TotalPowerW       float64
	TCT               metrics.TCTStats
	MeanTCTMS         float64
	Requests          float64
	EnergyJ           float64
	EnergyPerRequestJ float64
	Migrations        int
	MigrationMB       float64
	// MeanServerUtil is the mean CPU utilization across active servers.
	MeanServerUtil float64
	// SLAViolations is the share of request weight whose latency
	// exceeded Options.SLATargetMS (0 when no target is set).
	SLAViolations float64

	// Failure-and-recovery axes (meaningful when the topology carries
	// chaos-injected faults; see recovery.go).

	// FailedServers is the number of servers down at placement time.
	FailedServers int
	// DisplacedContainers counts carried containers whose previous-epoch
	// server is now failed — the workload the recovery loop must re-place.
	DisplacedContainers int
	// DisplacedDemand aggregates the displaced containers' demand.
	DisplacedDemand resources.Vector
	// GroupsDown counts service units (replica groups, or single
	// non-replicated containers) that entered the epoch with zero carried
	// members on surviving servers. With rack-level anti-affinity a
	// rack fault should leave this at the non-replicated casualties only.
	GroupsDown int
	// RecoveryMigrations counts displaced containers successfully
	// re-placed this epoch (a subset of Migrations).
	RecoveryMigrations int
	// RecoveryTimeS estimates how long restoring the displaced containers
	// took: per-destination serialized image pulls over the surviving
	// NICs, destinations in parallel.
	RecoveryTimeS float64
	// Availability is the service-unit-weighted available fraction of the
	// epoch: units with a surviving replica ride through at 1.0 (failover),
	// recovered units lose RecoveryTimeS, dead or rejected units lose the
	// whole epoch. 1.0 when nothing was down.
	Availability float64
	// AdmissionRejected counts containers shed by last-resort admission
	// control because even the relaxed spill ceiling could not fit the
	// workload on the surviving capacity.
	AdmissionRejected int
	// RejectedDemand aggregates the shed containers' demand.
	RejectedDemand resources.Vector
	// SpillTarget is the utilization ceiling the policy packed against
	// (Result.TargetUtil): 0.70 at the PEE knee; above it the degradation
	// ladder spilled and the cubic DVFS penalty applies.
	SpillTarget float64

	// Control-plane robustness axes (see Options.SolveDeadline and
	// Options.MigrateRetry).

	// LadderRung is the solve-degradation rung this epoch ran at:
	// 0 = configured policy, 1 = warm-start repair, 2 = greedy first-fit.
	LadderRung int
	// ModeledSolveMS is the deterministic modeled solve cost of the rung
	// that ran, after the epoch's SolveCostFactor.
	ModeledSolveMS float64
	// MigrationRetries counts failed transfer attempts that were retried
	// (or exhausted) this epoch.
	MigrationRetries int
	// DroppedMigrations counts migrations whose every transfer attempt
	// failed: the container stays on its source server (or cold-restarts
	// at the destination when the source is dead) instead of migrating,
	// and the move is excluded from Migrations/MigrationMB.
	DroppedMigrations int
}

// Runner drives one policy across epochs on one topology.
type Runner struct {
	topo   *topology.Topology
	policy scheduler.Policy
	opts   Options

	epoch        int
	totalEnergyJ float64
	totalReqs    float64

	// prevPlace maps container ID → server id, for migration diffs; nil
	// until the first epoch.
	prevPlace map[int]int
	// nextPlace is migrationDiff's spare map: cleared, filled with the new
	// placement and swapped with prevPlace, so the diff allocates no map
	// once both exist. Nothing else holds either map across epochs (Prime
	// and Snapshot copy prevPlace; Restore replaces it).
	nextPlace map[int]int

	// lastSnap is the previous epoch's metrics snapshot, diffed against the
	// current one to emit per-epoch deltas on the epoch span.
	lastSnap telemetry.Snapshot
	// hLinkUtil is resolved once so the per-link observation loop never
	// touches the registry map.
	hLinkUtil *telemetry.Histogram
	// acct is the accounting working set reused by every epoch.
	acct acctScratch

	// recordsWritten counts journal appends by this runner instance (not
	// carried across restarts) — the clock Options.CrashAfterRecords
	// crashes against.
	recordsWritten int
	// auditJournaled is the cursor into the session audit log marking the
	// decisions already journaled; journalAudit writes the slice beyond it.
	auditJournaled int
}

// NewRunner builds a runner. The topology is not mutated.
func NewRunner(topo *topology.Topology, policy scheduler.Policy, opts Options) *Runner {
	if opts.EpochLength <= 0 {
		opts.EpochLength = DefaultOptions().EpochLength
	}
	if opts.MaxQueueUtil <= 0 || opts.MaxQueueUtil >= 1 {
		opts.MaxQueueUtil = DefaultOptions().MaxQueueUtil
	}
	if opts.PerHopLatencyMS < 0 {
		opts.PerHopLatencyMS = DefaultOptions().PerHopLatencyMS
	}
	if opts.MaxLinkUtil <= 0 || opts.MaxLinkUtil >= 1 {
		opts.MaxLinkUtil = DefaultOptions().MaxLinkUtil
	}
	return &Runner{
		topo:   topo,
		policy: policy,
		opts:   opts,
		hLinkUtil: opts.Telemetry.Histogram("cluster_link_utilization",
			0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
		acct: newAcctScratch(topo),
	}
}

// acctScratch is the epoch accounting's working set. The per-link and
// per-server arrays are sized once from the topology (its shape is fixed
// after build, see topology.Topology.Links); the per-container and
// per-flow buffers grow with the largest workload seen and are then
// reused, so the per-flow loops neither allocate nor touch a map.
type acctScratch struct {
	// linkLoad is the epoch's traffic per link id (Mbps), summed in flow
	// order; touched marks the links at least one flow crossed.
	linkLoad []float64
	touched  []bool
	// hopMS is each touched link's congestion-inflated per-hop latency.
	hopMS []float64
	// queueWait is each server's M/M/c wait as a multiple of the service
	// time: it depends on the server only, not on the flow.
	queueWait []float64
	// flowWeight is each container's total flow weight.
	flowWeight []float64
	// samples holds one latency sample per accounted flow.
	samples []metrics.WeightedSample
}

func newAcctScratch(topo *topology.Topology) acctScratch {
	links := len(topo.Links())
	return acctScratch{
		linkLoad:  make([]float64, links),
		touched:   make([]bool, links),
		hopMS:     make([]float64, links),
		queueWait: make([]float64, topo.NumServers()),
	}
}

// RunEpoch schedules the epoch's workload and returns its report. When the
// topology carries failures (chaos injection between epochs), the epoch is
// also a recovery round: displaced containers are detected against the
// previous placement, the policy re-places on the surviving capacity
// (degrading through its spill ladder), admission control sheds load as a
// last resort, and the report carries the failure axes (recovery.go).
func (r *Runner) RunEpoch(in EpochInput) (EpochReport, error) {
	sess := r.opts.Telemetry
	simAt := time.Duration(r.epoch) * r.opts.EpochLength
	sess.SetEpoch(r.epoch, simAt)
	var espan *telemetry.Span
	if sess != nil {
		espan = sess.Root(fmt.Sprintf("epoch %03d %s", r.epoch, r.policy.Name()), simAt)
	}
	region := rtrace.StartRegion(context.Background(), "cluster.epoch")

	fail := func(err error) (EpochReport, error) {
		espan.End()
		region.End()
		return EpochReport{}, fmt.Errorf("cluster: epoch %d: %w", r.epoch, err)
	}

	fspan := espan.Child("snapshot-failures")
	snap := r.snapshotFailures(in.Spec)
	fspan.SetInt("failed_servers", snap.failedServers)
	fspan.SetInt("displaced", len(snap.displaced))
	fspan.End()

	// Degradation ladder: budget the modeled solve cost before placing.
	rung, modeledMS := r.chooseRung(len(in.Spec.Containers), in.SolveCostFactor)
	pol := r.rungPolicy(rung)
	if rung != RungFull {
		sess.Counter("cluster_ladder_downgrades_total").Inc()
		if sess.Auditing() {
			sess.Decide(telemetry.Decision{
				Policy: r.policy.Name(), Container: -1, Group: -1,
				Action: telemetry.ActionDegraded, Server: -1, From: -1,
				Detail: fmt.Sprintf("modeled solve cost exceeds %v budget; running rung %d (%s) at %.1f ms",
					r.opts.SolveDeadline, rung, rungName(rung), modeledMS),
			})
		}
	}

	if err := r.journalEpochBegin(rung, modeledMS); err != nil {
		return fail(err)
	}

	pspan := espan.Child("place")
	pspan.SetInt("ladder_rung", rung)
	pregion := rtrace.StartRegion(context.Background(), "cluster.place")
	res, rejected, err := r.placeWithAdmissionControl(in.Spec, pol, pspan)
	pregion.End()
	if err != nil {
		pspan.SetStr("error", err.Error())
		pspan.End()
		return fail(err)
	}
	pspan.SetFloat("target_util", res.TargetUtil)
	pspan.SetInt("shed", len(rejected))
	pspan.End()

	if err := r.journalPlacement(res, rejected); err != nil {
		return fail(err)
	}

	// Execute the migration transfers (journaling each wave first). A
	// transfer that exhausts its retries reverts the container in
	// res.Placement, so the accounting below sees the effective placement.
	retries, dropped, err := r.executeMigrations(in, &res, espan)
	if err != nil {
		return fail(err)
	}

	aspan := espan.Child("account")
	rep := r.account(in, res)
	aspan.End()
	rep.LadderRung = rung
	rep.ModeledSolveMS = modeledMS
	rep.MigrationRetries = retries
	rep.DroppedMigrations = dropped

	rspan := espan.Child("recovery")
	r.accountRecovery(&rep, in.Spec, res, snap, rejected)
	rspan.SetInt("recovery_migrations", rep.RecoveryMigrations)
	rspan.End()

	r.recordEpochMetrics(espan, rep)
	espan.End()
	region.End()
	if err := r.journalAudit(); err != nil {
		return rep, fmt.Errorf("cluster: epoch %d: %w", rep.Epoch, err)
	}
	r.epoch++
	if err := r.journalCommit(rep); err != nil {
		return rep, fmt.Errorf("cluster: epoch %d: %w", rep.Epoch, err)
	}
	if sess != nil && sess.ReportSink != nil {
		sess.ReportSink(rep)
	}
	return rep, nil
}

// recordEpochMetrics publishes the epoch report into the metrics registry
// and attaches the per-epoch snapshot delta to the epoch span as events, so
// a trace alone shows what each epoch changed.
func (r *Runner) recordEpochMetrics(espan *telemetry.Span, rep EpochReport) {
	sess := r.opts.Telemetry
	if sess == nil || sess.Metrics == nil {
		return
	}
	m := sess.Metrics
	m.Counter("cluster_epochs_total").Inc()
	m.Counter("cluster_migrations_total").Add(int64(rep.Migrations))
	m.Counter("cluster_recovery_migrations_total").Add(int64(rep.RecoveryMigrations))
	m.Counter("cluster_shed_containers_total").Add(int64(rep.AdmissionRejected))
	m.Gauge("cluster_active_servers").Set(float64(rep.ActiveServers))
	m.Gauge("cluster_mean_server_util").Set(rep.MeanServerUtil)
	m.Gauge("cluster_total_power_w").Set(rep.TotalPowerW)
	m.Gauge("cluster_mean_tct_ms").Set(rep.MeanTCTMS)
	m.Gauge("cluster_spill_target").Set(rep.SpillTarget)
	m.Gauge("cluster_availability").Set(rep.Availability)

	snap := m.Snapshot()
	if espan.Enabled() {
		for _, d := range snap.Sub(r.lastSnap) {
			if d.Value == 0 {
				continue
			}
			espan.Event("metric-delta",
				telemetry.Attr{Key: "name", Val: d.Name},
				telemetry.Attr{Key: "delta", Val: telemetry.FormatFloat(d.Value)})
		}
	}
	r.lastSnap = snap
}

// RunSeries runs consecutive epochs and returns all reports; it stops at
// the first scheduling failure.
func (r *Runner) RunSeries(inputs []EpochInput) ([]EpochReport, error) {
	reports := make([]EpochReport, 0, len(inputs))
	for _, in := range inputs {
		rep, err := r.RunEpoch(in)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// TotalEnergyPerRequest returns joules per request across every epoch run
// so far.
func (r *Runner) TotalEnergyPerRequest() float64 {
	if r.totalReqs == 0 {
		return 0
	}
	return r.totalEnergyJ / r.totalReqs
}

// account derives the epoch report from a placement.
func (r *Runner) account(in EpochInput, res scheduler.Result) EpochReport {
	burst := in.Burst
	if burst <= 0 {
		burst = 1
	}
	sc := &r.acct
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
	// Failed servers draw no power, even under all-servers-on policies:
	// a dead machine is off, not idle.
	for s := 0; s < numServers; s++ {
		if r.topo.ServerFailed(s) {
			active[s] = false
		}
	}

	// Server power: the load-proportional axis is CPU. The same CPU
	// utilization sets the server's queueing delay for every flow it
	// answers.
	serverW := 0.0
	activeCount := 0
	utilSum := 0.0
	for s := 0; s < numServers; s++ {
		u := loads[s].Utilization(r.topo.Capacity[s])[resources.CPU]
		cores := r.topo.Capacity[s][resources.CPU] / 100
		sc.queueWait[s] = queueWaitFactor(math.Min(u, r.opts.MaxQueueUtil), cores)
		if !active[s] {
			continue
		}
		activeCount++
		utilSum += u
		serverW += r.topo.Server[s].Power(u)
	}

	// Size the per-workload buffers here so the hotpath loops never grow
	// them.
	nc := len(in.Spec.Containers)
	sc.flowWeight = slices.Grow(sc.flowWeight[:0], nc)[:nc]
	sc.samples = slices.Grow(sc.samples[:0], len(in.Spec.Flows))
	r.linkLoads(in.Spec, res.Placement, burst)
	networkW := r.networkPower(active)

	for id, l := range r.topo.Links() {
		if !sc.touched[id] {
			continue
		}
		u := r.opts.MaxLinkUtil
		if l.CapacityMbps > 0 {
			u = math.Min(sc.linkLoad[id]/l.CapacityMbps, r.opts.MaxLinkUtil)
		}
		r.hLinkUtil.Observe(u)
		sc.hopMS[id] = r.opts.PerHopLatencyMS / (1 - u)
	}
	badW, totalW := r.taskCompletionTimes(in.Spec, res.Placement)
	stats := metrics.SummarizeWeightedTCT(sc.samples)
	slaViolations := 0.0
	if totalW > 0 {
		slaViolations = badW / totalW
	}

	energy := (serverW + networkW) * r.opts.EpochLength.Seconds()
	servedRPS := in.RPS
	if stats.MeanMS > 0 && stats.Count > 0 {
		// Closed-loop cap: each of the Count query connections completes
		// at most 1000/TCT_ms requests per second.
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

// networkPower powers ToRs of active racks and a *traffic-proportional*
// number of aggregation/core switches plus backup paths (§II: idle
// switches and links are turned off only after task packing, so a
// locality-preserving placement that keeps traffic inside racks lets the
// fabric layer power down). It reads the link loads linkLoads left in the
// accounting scratch.
func (r *Runner) networkPower(active []bool) float64 {
	linkLoad := r.acct.linkLoad
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
				continue // whole rack dark: ToR off
			}
			for _, sg := range n.Switches {
				// Ports: one per active server plus the uplink ports
				// the rack's outbound traffic actually needs (plus a
				// backup).
				uplinks := 1 + r.opts.BackupSwitches
				if n.Uplink != nil && n.Uplink.CapacityMbps > 0 {
					perPort := n.Uplink.CapacityMbps / float64(sg.Model.NumPorts/2)
					uplinks += int(math.Ceil(linkLoad[n.LinkID()] / perPort))
				}
				total += sg.Model.Power(servers+uplinks) * float64(sg.Count)
			}
		case topology.LevelPod, topology.LevelRoot:
			// Aggregation/core: the traffic transiting this layer is
			// the sum of the children's uplink loads; power the number
			// of switches that traffic needs, plus backups.
			activeChildren := 0
			transit := 0.0
			var childCap float64
			for _, c := range n.Children {
				if activeIn(c) > 0 {
					activeChildren++
				}
				if c.Uplink != nil {
					transit += linkLoad[c.LinkID()]
					childCap += c.Uplink.CapacityMbps
				}
			}
			if activeChildren == 0 {
				continue
			}
			for _, sg := range n.Switches {
				on := 1 + r.opts.BackupSwitches
				if childCap > 0 {
					share := childCap / float64(sg.Count) // capacity one switch provides
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

// linkLoads estimates per-link traffic (Mbps) from the placement into the
// accounting scratch: every container's network demand is spread over its
// flows proportionally to flow weight, and each flow charges its path.
// This feeds both the congestion term of the TCT model and the fabric
// power-down accounting. Each link's load is summed in flow order.
//
//goldilocks:hotpath
func (r *Runner) linkLoads(spec *workload.Spec, placement []int, burst float64) {
	sc := &r.acct
	flowWeight := sc.flowWeight
	clear(flowWeight)
	for _, f := range spec.Flows {
		flowWeight[f.A] += f.Count
		flowWeight[f.B] += f.Count
	}
	load, touched := sc.linkLoad, sc.touched
	clear(load)
	clear(touched)
	for _, f := range spec.Flows {
		sa, sb := placement[f.A], placement[f.B]
		if sa < 0 || sb < 0 {
			continue // a shed endpoint generates no traffic
		}
		if sa == sb {
			continue // intra-server traffic never touches the fabric
		}
		traffic := 0.0
		if flowWeight[f.A] > 0 {
			traffic += spec.Containers[f.A].Demand[resources.Network] * f.Count / flowWeight[f.A]
		}
		if flowWeight[f.B] > 0 {
			traffic += spec.Containers[f.B].Demand[resources.Network] * f.Count / flowWeight[f.B]
		}
		traffic = traffic / 2 * burst // average the two endpoint estimates, apply the burst
		up, down := r.topo.PathLinkIDs(sa, sb)
		for _, l := range up {
			load[l] += traffic
			touched[l] = true
		}
		for _, l := range down {
			load[l] += traffic
			touched[l] = true
		}
	}
}

// taskCompletionTimes fills the scratch sample buffer with one latency
// sample per accounted flow, weighted by the flow's request count so
// statistics are per-request: M/M/c queueing at the responder's server
// plus congestion-inflated per-hop latency along the pair's path — the
// paper's two levers (headroom and locality) in one number. When an SLA
// target is set it also returns the sample weight above the target and
// the total sample weight.
//
//goldilocks:hotpath
func (r *Runner) taskCompletionTimes(spec *workload.Spec, placement []int) (badW, totalW float64) {
	sc := &r.acct
	focus, target := r.opts.FocusApp, r.opts.SLATargetMS
	samples := sc.samples[:0]
	for _, f := range spec.Flows {
		ca, cb := &spec.Containers[f.A], &spec.Containers[f.B]
		if focus != "" && (ca.App.Name != focus || cb.App.Name != focus) {
			continue
		}
		sa, sb := placement[f.A], placement[f.B]
		if sa < 0 || sb < 0 {
			continue // a shed endpoint serves no requests
		}
		// Queueing at the responder's server: M/M/c with c = cores.
		service := cb.App.ServiceTimeMS
		queued := service + service*sc.queueWait[sb]
		network := 0.0
		up, down := r.topo.PathLinkIDs(sa, sb)
		for _, l := range up {
			network += sc.hopMS[l]
		}
		for _, l := range down {
			network += sc.hopMS[l]
		}
		ms := queued + network
		samples = append(samples, metrics.WeightedSample{MS: ms, Weight: f.Count})
		if target > 0 {
			totalW += f.Count
			if ms > target {
				badW += f.Count
			}
		}
	}
	sc.samples = samples
	return badW, totalW
}

// queueWaitFactor returns the expected waiting time as a multiple of the
// service time for an M/M/c queue at utilization rho, using Sakasegawa's
// approximation W/S ≈ ρ^√(2(c+1)) / (c·(1−ρ)). For c = 1 this reduces to
// the familiar ρ/(1−ρ); for many-core servers it stays near zero until
// utilization approaches saturation — the effect that makes Peak Energy
// Efficiency packing latency-safe while 95% packing is not.
func queueWaitFactor(rho, cores float64) float64 {
	if cores < 1 {
		cores = 1
	}
	if rho <= 0 {
		return 0
	}
	if rho >= 1 {
		rho = 0.999
	}
	return math.Pow(rho, math.Sqrt(2*(cores+1))) / (cores * (1 - rho))
}

// migrationDiff compares the new placement with the previous epoch's and
// returns how many containers moved and the memory they dragged along
// (checkpoint/restore images, §V).
func (r *Runner) migrationDiff(spec *workload.Spec, placement []int) (int, float64) {
	migrations := 0
	migMB := 0.0
	next := r.nextPlace
	if next == nil {
		next = make(map[int]int, len(placement))
	}
	clear(next)
	for i, s := range placement {
		if s < 0 {
			continue // shed: if re-admitted later it restarts, not migrates
		}
		id := spec.Containers[i].ID
		next[id] = s
		if prev, ok := r.prevPlace[id]; ok && prev != s {
			migrations++
			migMB += spec.Containers[i].Demand[resources.Memory]
		}
	}
	r.prevPlace, r.nextPlace = next, r.prevPlace
	return migrations, migMB
}
