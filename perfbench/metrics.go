package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// endToEnd derives the end-to-end metrics from the untraced loop: speed
// over every timed epoch, quality over the fixed quality window.
func endToEnd(setupS float64, o loopOut) map[string]metric {
	q := o.qual
	n := float64(q.epochs)
	return map[string]metric{
		"setup_s":              {setupS, "s"},
		"epochs_per_s":         {float64(o.epochs) / o.wall.Seconds(), "1/s"},
		"epoch_ms_p50":         {quantile(durationsMS(o.epochDurs), 0.5), "ms"},
		"allocs_per_epoch":     {float64(o.allocs) / float64(o.epochs), "count"},
		"peak_heap_mb":         {quantile(o.liveMB, 0.9), "MB"},
		"power_kw_mean":        {q.powerW / n / 1000, "kW"},
		"tct_ms_mean":          {q.tctMS / n, "ms"},
		"energy_per_req_j":     {q.energyJ / q.requests, "J"},
		"migrations_per_epoch": {float64(q.migrations) / n, "count"},
		"availability_mean":    {q.availSum / n, "ratio"},
		"admitted_frac":        {1 - float64(q.shed)/float64(q.offered), "ratio"},
	}
}

// printUntraced prints the untraced loop's metrics for people, with the
// epoch-time sample count, the 90th percentile where ten samples lie
// beyond it, and shed_frac (= 1 − admitted_frac).
func printUntraced(w io.Writer, def workloadDef, su *setUp, o loopOut, m map[string]metric) {
	fmt.Fprintf(w, "setup: setup_s=%.4f (median of %d set-ups + median warm-up of %d epochs)\n", su.setupS, setupReps, def.warmup)
	fmt.Fprintf(w, "loop: epochs=%d wall_s=%.3f epochs_per_s=%.2f epoch_ms_p50=%.4f (n=%d)",
		o.epochs, o.wall.Seconds(), m["epochs_per_s"].Value, m["epoch_ms_p50"].Value, len(o.epochDurs))
	if len(o.epochDurs) >= 100 {
		fmt.Fprintf(w, " epoch_ms_p90=%.4f (n=%d)", quantile(durationsMS(o.epochDurs), 0.9), len(o.epochDurs))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "memory: allocs_per_epoch=%.1f peak_heap_mb=%.3f (p90 of the live heap sampled every %v; max %.3f)\n",
		m["allocs_per_epoch"].Value, m["peak_heap_mb"].Value, heapSampleEvery, quantile(o.liveMB, 1))
	fmt.Fprintf(w, "quality (first %d epochs): power_kw_mean=%.4f tct_ms_mean=%.4f energy_per_req_j=%.6f migrations_per_epoch=%.3f availability_mean=%.5f shed_frac=%.5f\n",
		o.qual.epochs, m["power_kw_mean"].Value, m["tct_ms_mean"].Value, m["energy_per_req_j"].Value,
		m["migrations_per_epoch"].Value, m["availability_mean"].Value, 1-m["admitted_frac"].Value)
	fmt.Fprintf(w, "digest: %016x over %d epochs (warm-up prefix %016x over %d)\n", o.digest, o.epochs, su.warm.digest, def.warmup)
}

// layerIn is what the per-layer metrics are computed from: the traced and
// untraced loops over the same epochs, and the traced run's span times.
type layerIn struct {
	traced, untraced loopOut
	// total and self map span names to their summed time (ns) over the
	// traced loop's epochs; setup maps set-up span names to their time
	// over all setupReps set-ups.
	total, self, setup map[string]int64
	// loopWall is the traced loop's wall time and loopSelf the part no
	// layer span covers (ns).
	loopWall, loopSelf  int64
	placeCalls, placeOK int
	walRecords          int
	walBytes            int64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics. Times are per epoch of the
// traced loop unless named otherwise; partition.* are per replay.
func perLayer(l layerIn) map[string]metric {
	o := l.traced
	n := float64(o.epochs)
	perEpoch := func(m map[string]int64, name string) float64 { return float64(m[name]) / 1e6 / n }
	perSetup := func(name string) float64 { return float64(l.setup[name]) / 1e9 / setupReps }
	replays := float64(o.replays)
	replayNS := float64(l.total["partition.replay"] + l.total["workload.graph"])
	okRatio := 1.0
	if o.moves+o.dropped > 0 {
		okRatio = float64(o.moves) / float64(o.moves+o.dropped)
	}
	return map[string]metric{
		"cluster.epoch_ms":                {perEpoch(l.total, "cluster.epoch"), "ms"},
		"cluster.self_ms":                 {perEpoch(l.self, "cluster.epoch"), "ms"},
		"scheduler.place_ms":              {perEpoch(l.self, "scheduler.place"), "ms"},
		"scheduler.place_calls_per_epoch": {float64(l.placeCalls) / n, "count"},
		"scheduler.place_ok_ratio":        {ratio(float64(l.placeOK), float64(l.placeCalls)), "ratio"},
		"partition.replay_ms":             {ratio(float64(l.total["partition.replay"])/1e6, replays), "ms"},
		"partition.leaves":                {ratio(float64(o.leaves), replays), "count"},
		"partition.cut":                   {ratio(o.cut, replays), "weight"},
		"journal.records_per_epoch":       {float64(l.walRecords) / n, "count"},
		"journal.bytes_per_epoch":         {float64(l.walBytes) / n, "B"},
		"chaos.advance_ms":                {perEpoch(l.self, "chaos.advance"), "ms"},
		"chaos.faults_per_epoch":          {float64(o.faults) / n, "count"},
		"migrate.moves_per_epoch":         {float64(o.moves) / n, "count"},
		"migrate.retries_per_epoch":       {float64(o.retries) / n, "count"},
		"migrate.dropped_per_epoch":       {float64(o.dropped) / n, "count"},
		"migrate.ok_ratio":                {okRatio, "ratio"},
		"cluster.rung0_frac":              {float64(o.rungs[0]) / n, "ratio"},
		"cluster.rung1_frac":              {float64(o.rungs[1]) / n, "ratio"},
		"cluster.rung2_frac":              {float64(o.rungs[2]) / n, "ratio"},
		"cluster.displaced_per_epoch":     {float64(o.displaced) / n, "count"},
		"go.gc_cpu_frac":                  {ratio(l.untraced.gcCPU, l.untraced.totalCPU), "ratio"},
		"go.gc_cycles_per_epoch":          {float64(l.untraced.gcCycles) / float64(l.untraced.epochs), "count"},
		"workload.gen_s":                  {perSetup("workload.gen"), "s"},
		"trace.synth_s":                   {perSetup("trace.synth"), "s"},
		"topology.build_s":                {perSetup("topology.build"), "s"},
		"chaos.generate_s":                {perSetup("chaos.generate"), "s"},
		"bench.unattributed_frac":         {ratio(float64(l.loopSelf), float64(l.loopWall)), "ratio"},
		"bench.trace_overhead_frac":       {(float64(l.loopWall)-replayNS)/float64(l.untraced.wall) - 1, "ratio"},
	}
}

// printLayers prints the traced loop's self time per layer, largest
// first, then every per-layer metric.
func printLayers(w io.Writer, l layerIn, layers map[string]metric) {
	type share struct {
		name string
		ns   int64
	}
	var shares []share
	for name, ns := range l.self {
		shares = append(shares, share{name, ns})
	}
	shares = append(shares, share{"bench.unattributed", l.loopSelf})
	sort.Slice(shares, func(i, j int) bool {
		return shares[i].ns > shares[j].ns || (shares[i].ns == shares[j].ns && shares[i].name < shares[j].name)
	})
	n := float64(l.traced.epochs)
	epochNS := float64(l.total["cluster.epoch"])
	for _, s := range shares {
		fmt.Fprintf(w, "  self %-20s %11.4f ms/epoch %6.2f%% of loop %6.2f%% of epoch time\n",
			s.name, float64(s.ns)/1e6/n, 100*float64(s.ns)/float64(l.loopWall), 100*float64(s.ns)/epochNS)
	}
	var names []string
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-33s %.6g %s\n", k, layers[k].Value, layers[k].Unit)
	}
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
