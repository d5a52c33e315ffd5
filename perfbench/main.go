// Command goldibench is the repository's whole-epoch benchmark. It drives
// cluster.Runner.RunEpoch over one generated workload in a closed loop
// (one caller; epoch e+1 starts after epoch e returns), checks every
// report, and prints the end-to-end metrics (--trace 0) or, from a
// separate traced run of the same epochs, the per-layer metrics
// (--trace 1). The last line of standard output is one JSON object. See
// README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"goldilocks/internal/chaos"
	"goldilocks/internal/cluster"
	"goldilocks/internal/journal"
	"goldilocks/internal/topology"
)

const (
	defaultSeed = 1
	// heldOutSeed is never used while tuning a change; a claimed gain must
	// also hold on it.
	heldOutSeed = 7919
	// setupReps is how many times set-up is repeated; setup_s reports the
	// median. Warm-up repeats up to the same count while it stays cheap.
	setupReps    = 3
	warmupBudget = 2 * time.Second
	outDir       = ".bench_build"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("goldibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "how long the timed loop measures")
	traced := fs.Int("trace", 0, "1 = also run the traced loop and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "goldibench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := bench(def, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "goldibench: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "goldibench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUp is the prepared state of one invocation: the inputs, the fault
// schedule, the timed loop's instance, the set-up time and the warm-up
// loop's result.
type setUp struct {
	in     *inputs
	sched  *chaos.Schedule
	timed  *instance
	setupS float64
	warm   loopOut
}

// prepare generates the inputs and builds the timed loop's instance
// setupReps times, then warms the process (partition arenas and other
// pools) on throwaway instances while that stays within warmupBudget.
// setup_s is the median set-up plus the median warm-up.
func prepare(def workloadDef, seed int64, dir string, rec *recorder) (*setUp, error) {
	su := &setUp{}
	var setupDurs, warmDurs []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		in, err := def.gen(seed, rec)
		if err != nil {
			return nil, err
		}
		topo, sched, err := buildTopology(in, rec)
		if err != nil {
			return nil, err
		}
		inst, err := newInstance(in, topo, sched, filepath.Join(dir, "timed.wal"), false, rec)
		if err != nil {
			return nil, err
		}
		setupDurs = append(setupDurs, time.Since(t0).Seconds())
		if su.timed != nil {
			if err := su.timed.close(); err != nil {
				return nil, err
			}
		}
		su.in, su.sched, su.timed = in, sched, inst
	}
	var spent time.Duration
	for rep := 0; rep < setupReps && spent < warmupBudget; rep++ {
		id := rec.begin("cluster.warmup")
		t0 := time.Now()
		topo, err := su.in.newTopo()
		if err != nil {
			return nil, err
		}
		inst, err := newInstance(su.in, topo, su.sched, filepath.Join(dir, "warmup.wal"), false, nil)
		if err != nil {
			return nil, err
		}
		su.warm = runLoop(inst, def, def.warmup, def.warmup, 0, nil)
		if err := inst.close(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		rec.end(id)
		spent += d
		warmDurs = append(warmDurs, d.Seconds())
		if su.warm.failed > 0 {
			break
		}
	}
	su.setupS = quantile(setupDurs, 0.5) + quantile(warmDurs, 0.5)
	return su, nil
}

// buildTopology builds a fresh topology and, for chaos workloads, draws
// the fault schedule on it.
func buildTopology(in *inputs, rec *recorder) (*topology.Topology, *chaos.Schedule, error) {
	id := rec.begin("topology.build")
	topo, err := in.newTopo()
	rec.end(id)
	if err != nil || in.chaosCfg == nil {
		return topo, nil, err
	}
	id = rec.begin("chaos.generate")
	sched, err := chaos.Generate(topo, *in.chaosCfg)
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos schedule: %w", err)
	}
	return topo, &sched, nil
}

// bench runs one invocation: set-up, warm-up, the untraced timed loop and,
// when traced, the traced loop over the same epochs.
func bench(def workloadDef, seed int64, budget time.Duration, traced bool, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "host: num_cpu=%d gomaxprocs=%d go=%s cpu=%q seed=%d default_seed=%d held_out_seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), seed, defaultSeed, heldOutSeed)
	fmt.Fprintf(stdout, "workload: %s (%s)\n", def.name, def.why)

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	su, err := prepare(def, seed, dir, rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupSpans := 0
	if rec != nil {
		setupSpans = len(rec.spans)
	}
	runtime.GC()

	minEpochs := max(def.quality, def.warmup)
	untraced := runLoop(su.timed, def, minEpochs, def.maxEpochs, budget, nil)
	if err := su.timed.close(); err != nil {
		return nil, err
	}

	res := &result{Attempted: untraced.epochs, Failed: untraced.failed}
	var problems []string
	for _, err := range untraced.errs {
		problems = append(problems, err.Error())
	}
	if su.warm.failed > 0 {
		problems = append(problems, fmt.Sprintf("warm-up: %v", su.warm.errs))
	} else if untraced.prefix != su.warm.digest {
		problems = append(problems, fmt.Sprintf("warm-up digest %016x != timed-loop prefix digest %016x over %d epochs", su.warm.digest, untraced.prefix, def.warmup))
	}
	if su.in.journal {
		if err := checkJournal(su.timed.walPath, untraced); err != nil {
			problems = append(problems, err.Error())
		}
	}

	e2e := endToEnd(su.setupS, untraced)
	printUntraced(stdout, def, su, untraced, e2e)
	if !traced {
		res.Metrics = e2e
	} else {
		layers, tracedOut, err := traceRun(def, su, dir, seed, untraced, rec, setupSpans, stdout)
		if err != nil {
			return nil, err
		}
		res.Attempted += tracedOut.epochs
		res.Failed += tracedOut.failed
		for _, err := range tracedOut.errs {
			problems = append(problems, "traced: "+err.Error())
		}
		if tracedOut.digest != untraced.digest || tracedOut.epochs != untraced.epochs {
			problems = append(problems, fmt.Sprintf("traced digest %016x (%d epochs) != untraced digest %016x (%d epochs)",
				tracedOut.digest, tracedOut.epochs, untraced.digest, untraced.epochs))
		}
		res.Metrics = layers
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a run that measured nothing gets here; JSON cannot carry it.
			problems = append(problems, fmt.Sprintf("metric %s is %v", k, m.Value))
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "FAIL: %s\n", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	fmt.Fprintf(stdout, "checks: correct=%v failed_epochs=%d/%d epoch_fail_frac=%g\n",
		res.Correct, res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// checkJournal verifies that the WAL's committed reports are exactly the
// reports the loop received.
func checkJournal(path string, out loopOut) error {
	view, err := cluster.ReadJournal(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	dig := newDigest()
	for _, rep := range view.Reports {
		dig.add(rep)
	}
	if len(view.Reports) != out.epochs || dig.sum() != out.digest {
		return fmt.Errorf("journal: %d committed reports with digest %016x, loop saw %d with digest %016x",
			len(view.Reports), dig.sum(), out.epochs, out.digest)
	}
	return nil
}

// traceRun runs the traced loop over exactly the untraced loop's epochs
// on a fresh instance and derives the per-layer metrics from its spans.
func traceRun(def workloadDef, su *setUp, dir string, seed int64, untraced loopOut, rec *recorder, setupSpans int, stdout io.Writer) (map[string]metric, loopOut, error) {
	topo, err := su.in.newTopo()
	if err != nil {
		return nil, loopOut{}, err
	}
	inst, err := newInstance(su.in, topo, su.sched, filepath.Join(dir, "traced.wal"), true, rec)
	if err != nil {
		return nil, loopOut{}, err
	}
	runtime.GC()
	loopID := rec.begin("bench.loop")
	o := runLoop(inst, def, untraced.epochs, untraced.epochs, 0, rec)
	rec.setEpoch(-1)
	rec.end(loopID)
	if err := inst.close(); err != nil {
		return nil, o, err
	}
	if err := checkTree(rec.spans); err != nil {
		o.fail(err)
	}

	var records int
	var bytes int64
	if su.in.journal {
		if err := checkJournal(inst.walPath, o); err != nil {
			o.fail(err)
		}
		recs, validLen, _, err := journal.ReadFile(inst.walPath, nil)
		if err != nil {
			return nil, o, err
		}
		records, bytes = len(recs), validLen
	}

	spanPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", def.name, seed))
	if err := rec.writeJSONL(spanPath); err != nil {
		return nil, o, err
	}

	total, self := layerTimes(rec.spans, func(s span) bool { return s.Epoch >= 0 && s.Epoch < o.epochs })
	_, loopSelf := layerTimes(rec.spans, func(s span) bool { return s.ID == loopID })
	setupTotal, _ := layerTimes(rec.spans, func(s span) bool { return s.ID < setupSpans })
	l := layerIn{
		traced: o, untraced: untraced,
		total: total, self: self, setup: setupTotal,
		loopWall: rec.spans[loopID].dur(), loopSelf: loopSelf["bench.loop"],
		placeCalls: inst.probe.calls, placeOK: inst.probe.ok,
		walRecords: records, walBytes: bytes,
	}
	fmt.Fprintf(stdout, "traced: epochs=%d loop_wall_s=%.3f spans=%d written to %s\n", o.epochs, float64(l.loopWall)/1e9, len(rec.spans), spanPath)
	layers := perLayer(l)
	printLayers(stdout, l, layers)
	return layers, o, nil
}

// cpuModel reads the CPU model name for the host stamp.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
