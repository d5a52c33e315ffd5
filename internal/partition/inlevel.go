package partition

// In-level parallelism for the multilevel partitioner (DESIGN.md §5.1.6).
//
// PR 5 made the hot path allocation-free, but Options.Parallelism only
// fanned out *across* subproblems — initial-bisection tries and recursive
// children — while the dominant top levels (matching, contraction, FM gain
// initialization on the full graph) ran serially, so wall-clock was flat in
// P. This file parallelizes *inside* a level without giving up the
// bit-identity contract: every routine here produces output equal to its
// serial counterpart for any worker count and any goroutine schedule.
//
// The common scheme: work is split at *structural* boundaries (functions of
// the graph alone, never of P or of timing), each chunk writes only to
// disjoint ranges or to chunk-private arena slabs, and any step whose
// outcome depends on cross-chunk order runs as a serial sweep in canonical
// order. Workers are drawn from the run's Limiter and never awaited
// mid-phase — phases are separated by full joins (runChunks returns only
// when all chunks finished), so a phase sees every prior phase's writes.

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"goldilocks/internal/resources"
)

// inLevelMinN is the vertex count below which in-level parallel paths are
// not attempted: chunk bookkeeping on small graphs costs more than the
// serial loop, and the deep coarse levels are cheap anyway. The threshold
// is structural (a constant), so it cannot make output depend on P — below
// it both the serial and "parallel" paths are the same serial code.
const inLevelMinN = 8192

// useInLevel gates the in-level parallel paths. With a nil Limiter
// (Parallelism ≤ 1) the serial code runs unchanged; above the size floor
// the chunked implementations take over — and produce identical bytes.
func useInLevel(n int, lim Limiter) bool { return lim != nil && n >= inLevelMinN }

// inLevelChunks picks the task count for an n-element range: enough chunks
// that the Limiter's workers all find work, few enough that per-chunk slab
// zeroing stays cheap. Structural in n only.
func inLevelChunks(n int) int {
	c := n / 4096
	if c < 2 {
		c = 2
	}
	if c > 16 {
		c = 16
	}
	return c
}

// runChunks executes fn(0..k-1) across the caller plus any workers it can
// borrow from lim, returning when every chunk has run. Chunks are claimed
// via an atomic counter (work stealing), so the *schedule* is
// nondeterministic — callers must make each fn(c) write only to
// chunk-private state. Acquisition never blocks: with no free slots the
// caller simply runs all chunks itself, which is the serial order.
//
//goldilocks:hotpath
func runChunks(lim Limiter, k int, fn func(c int)) {
	if k <= 1 || lim == nil {
		for c := 0; c < k; c++ {
			fn(c)
		}
		return
	}
	var next atomic.Int64 //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
	work := func() {      //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
		for {
			c := int(next.Add(1)) - 1
			if c >= k {
				return
			}
			fn(c)
		}
	}
	var wg sync.WaitGroup //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
	for spawned := 0; spawned < k-1 && lim.TryAcquire(); spawned++ {
		wg.Add(1)
		go func() { //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
			defer wg.Done()
			defer lim.Release()
			work()
		}()
	}
	work()
	wg.Wait()
}

// inLevelScratch is the arena slab set backing the in-level parallel paths.
// All slices are chunk-partitioned views handed to runChunks workers; the
// arena's single-owner discipline still holds because the slabs are only
// partitioned for the duration of one runChunks join.
type inLevelScratch struct {
	prop       []int32   // matching: proposed partner per vertex
	cnt        []int32   // contraction: per-chunk × per-row half counts, then cursors
	rowTot     []int32   // contraction: per-row totals, then deduped lengths
	newStart   []int32   // contraction: post-dedup row starts
	markers    []int32   // contraction: per-range dedup markers; all −1 between uses
	fineOf     []int32   // contraction: the ≤2 fine constituents per coarse vertex
	fineBounds []int32   // contraction: edge-balanced fine chunk boundaries
	rowBounds  []int32   // contraction: edge-balanced coarse row-range boundaries
	adjStage   []int32   // contraction: compaction staging for adj
	wStage     []float64 // contraction: compaction staging for edge weights
}

// growNegOne resizes a −1-filled slab, preserving the all-−1 invariant for
// both freshly allocated and re-sliced regions (same discipline as
// levelArena.growMarker).
func growNegOne(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		m := make([]int32, grownCap(n))
		for i := range m {
			m[i] = -1
		}
		*s = m[:n]
		return *s
	}
	*s = (*s)[:n]
	return *s
}

// edgeChunkBounds splits vertices [0, n) into k contiguous ranges holding
// roughly equal slices of the adjacency array, returning k+1 vertex
// boundaries in buf. Equal-vertex chunks would let one hub row dominate a
// chunk (power-law graphs concentrate a large share of edges on a few
// vertices); balancing on xadj keeps per-chunk edge work even. The bounds
// depend only on the graph, never on P.
//
//goldilocks:hotpath
func edgeChunkBounds(xadj []int32, n, k int, buf *[]int32) []int32 {
	b := growI32(buf, k+1) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	b[0] = 0
	total := int64(xadj[n])
	for c := 1; c < k; c++ {
		target := int32(total * int64(c) / int64(k))
		// Lower bound of target in xadj[0..n] — binary search keeps this
		// O(k log n) against million-edge levels.
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if xadj[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		b[c] = int32(lo)
		if b[c] < b[c-1] {
			b[c] = b[c-1] // empty chunk when targets collide
		}
	}
	b[k] = int32(n)
	return b
}

// matchWindow is the conflict-resolution window of chunked matching: the
// permutation is processed in windows of this many positions, proposals
// computed concurrently within a window and committed serially. Structural
// in n only — windows, and therefore output, are identical at every P.
func matchWindow(n int) int {
	w := (n + 15) / 16
	if w < 4096 {
		w = 4096
	}
	return w
}

// heavyEdgeMatchingChunked computes exactly the matching heavyEdgeMatching
// computes — same permutation, same greedy visit semantics, same bytes —
// with the per-vertex best-neighbor scans fanned out across workers.
//
// The permutation is cut into fixed windows. For each window, workers
// compute every vertex's *proposal*: its heaviest positive-weight neighbor
// among vertices unmatched at window start (−1 when no eligible neighbor).
// A serial sweep then walks the window in permutation order and commits:
//
//   - vertex already matched (by an earlier commit) → skip, as serial does;
//   - proposal's partner still unmatched → commit the pair. This is the
//     serial choice: the serial scan at this position sees the window-start
//     unmatched set minus vertices matched by earlier commits, and the
//     proposal — the first strict-max over the window-start set — is still
//     the first strict-max over any subset that retains it;
//   - proposal −1 → self-match, as serial does (vertices matched since
//     window start were ineligible then and are ineligible now);
//   - proposal's partner got matched since window start (stale) → recompute
//     the best neighbor against the *current* match state, which is
//     verbatim the serial inner loop.
//
// Every commit therefore equals the serial decision at the same
// permutation position, so the final match array is byte-identical to
// heavyEdgeMatching's (pinned by TestChunkedMatchingIdentity). Workers
// read the match array only for window-start state — commits happen
// strictly between windows — so the proposal phase is race-free.
//
//goldilocks:hotpath
func heavyEdgeMatchingChunked(g *csrGraph, rng *rand.Rand, a *levelArena, lim Limiter) []int32 {
	n := g.n
	match := growI32(&a.match, n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	for i := range match {
		match[i] = -1
	}
	order := a.permInto(rng, n)
	prop := growI32(&a.il.prop, n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array

	window := matchWindow(n)
	for lo := 0; lo < n; lo += window {
		hi := lo + window
		if hi > n {
			hi = n
		}
		// Proposal phase: concurrent, reads match (frozen), writes prop
		// at disjoint indices.
		k := inLevelChunks(hi - lo)
		runChunks(lim, k, func(c int) { //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
			clo := lo + (hi-lo)*c/k
			chi := lo + (hi-lo)*(c+1)/k
			for i := clo; i < chi; i++ {
				v := order[i]
				if match[v] >= 0 {
					continue // sweep skips it; prop never read
				}
				best := int32(-1)
				bestW := 0.0
				adj, w := g.row(v)
				for k, to := range adj {
					if w[k] <= 0 || match[to] >= 0 {
						continue
					}
					if w[k] > bestW {
						bestW = w[k]
						best = to
					}
				}
				prop[v] = best
			}
		})
		// Commit phase: serial, in permutation order — the canonical
		// sequential order the output is defined by.
		for i := lo; i < hi; i++ {
			v := order[i]
			if match[v] >= 0 {
				continue
			}
			if p := prop[v]; p >= 0 && match[p] < 0 {
				match[v] = p
				match[p] = v
				continue
			} else if p < 0 {
				match[v] = v
				continue
			}
			// Stale proposal: the proposed partner was claimed by an
			// earlier commit in this window. Re-run the serial scan.
			best := int32(-1)
			bestW := 0.0
			adj, w := g.row(v)
			for k, to := range adj {
				if w[k] <= 0 || match[to] >= 0 {
					continue
				}
				if w[k] > bestW {
					bestW = w[k]
					best = to
				}
			}
			if best >= 0 {
				match[v] = best
				match[best] = v
			} else {
				match[v] = v
			}
		}
	}
	return match
}

// contractRouteParallel builds the coarse CSR rows that the serial path
// builds via halves emission + routeHalves(dedup), byte for byte, as a
// counting scatter straight from the fine CSR — the halves buffer is never
// materialized. fineOf lists each coarse vertex's ≤2 fine constituents
// (from the cmap first-visit sweep), used to accumulate coarse vertex
// weights in the serial addition order.
//
// Identity argument, phase by phase: the serial row layout is "halves in
// global emission order, grouped by row" (stable counting scatter), where
// emission order is fine v ascending, k ascending, (cv,cu) before (cu,cv).
// Fine chunks are contiguous v-ranges, so chunk c's emissions all precede
// chunk c+1's; giving row r one segment per chunk, in chunk order, with
// in-chunk emission order inside each segment, reproduces the exact global
// order. Dedup then applies routeHalves' first-seen-keeps-position
// accumulation per row — rows are independent, so fanning rows out changes
// nothing — and the final left-compaction only moves rows to lower
// addresses.
//
//goldilocks:hotpath
func contractRouteParallel(fine *csrGraph, cmap []int32, cn int, fineOf []int32, a *levelArena, lvl *csrLevel, lim Limiter) {
	n := fine.n
	il := &a.il

	// Coarse vertex weights: vw[cv] = 0 + vw[first constituent] + vw[second].
	// The serial loop accumulates in ascending fine order and cmap assigns
	// the lower constituent first, so this is the same addition order.
	vw := growVecs(&lvl.g.vw, cn) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	cvk := inLevelChunks(cn)
	runChunks(lim, cvk, func(c int) { //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
		for cv := cn * c / cvk; cv < cn*(c+1)/cvk; cv++ {
			w := resources.Vector{}.Add(fine.vw[fineOf[2*cv]])
			if f2 := fineOf[2*cv+1]; f2 >= 0 {
				w = w.Add(fine.vw[f2])
			}
			vw[cv] = w
		}
	})

	// Fine chunks are edge-balanced: power-law hubs concentrate edges, and
	// an equal-vertex split would serialize on the hub chunk.
	C := inLevelChunks(n)
	fb := edgeChunkBounds(fine.xadj, n, C, &il.fineBounds)

	// Phase 1: per-chunk, per-coarse-row half counts into private slabs.
	cnt := growI32(&il.cnt, C*cn)   //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	runChunks(lim, C, func(c int) { //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
		slab := cnt[c*cn : (c+1)*cn]
		for i := range slab {
			slab[i] = 0
		}
		for v := int(fb[c]); v < int(fb[c+1]); v++ {
			cv := cmap[v]
			for k := fine.xadj[v]; k < fine.xadj[v+1]; k++ {
				to := fine.adj[k]
				if int32(v) >= to {
					continue
				}
				if cu := cmap[to]; cu != cv {
					slab[cv]++
					slab[cu]++
				}
			}
		}
	})

	// Phase 2: exclusive prefix across chunks within each row — slab c's
	// entry for row r becomes the offset of chunk c's segment inside row r.
	// Per-row work is O(C), uniform, so equal-count row ranges suffice.
	rowTot := growI32(&il.rowTot, cn) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	rk := inLevelChunks(cn)
	runChunks(lim, rk, func(rc int) { //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
		for r := cn * rc / rk; r < cn*(rc+1)/rk; r++ {
			s := int32(0)
			for c := 0; c < C; c++ {
				cnt[c*cn+r], s = s, s+cnt[c*cn+r]
			}
			rowTot[r] = s
		}
	})

	// Phase 3: serial row-start prefix sum (O(cn), trivially cheap).
	xa := growI32(&lvl.g.xadj, cn+1) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	xa[0] = 0
	for r := 0; r < cn; r++ {
		xa[r+1] = xa[r] + rowTot[r]
	}
	total := int(xa[cn])
	ad := growI32(&lvl.g.adj, total) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	wt := growF(&lvl.g.w, total)     //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array

	// Phase 4: scatter. Each chunk turns its slab into absolute cursors and
	// re-scans its fine range, emitting both halves of each kept edge. Rows
	// receive chunk segments at disjoint offsets, so no two workers write
	// the same index.
	runChunks(lim, C, func(c int) { //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
		slab := cnt[c*cn : (c+1)*cn]
		for r := 0; r < cn; r++ {
			slab[r] += xa[r]
		}
		for v := int(fb[c]); v < int(fb[c+1]); v++ {
			cv := cmap[v]
			for k := fine.xadj[v]; k < fine.xadj[v+1]; k++ {
				to := fine.adj[k]
				if int32(v) >= to {
					continue
				}
				cu := cmap[to]
				if cu == cv {
					continue
				}
				w := fine.w[k]
				p := slab[cv]
				slab[cv]++
				ad[p], wt[p] = cu, w
				p = slab[cu]
				slab[cu]++
				ad[p], wt[p] = cv, w
			}
		}
	})

	// Phase 5: per-row first-seen dedup-accumulate, rows fanned out in
	// edge-balanced ranges, each range with a private marker slab (all −1
	// between uses). In-place within the row, exactly routeHalves pass 3.
	rb := edgeChunkBounds(xa, cn, rk, &il.rowBounds)
	markers := growNegOne(&il.markers, rk*cn) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	newLen := rowTot                          // rowTot is dead after phase 3; reuse for deduped lengths
	runChunks(lim, rk, func(rc int) {         //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
		marker := markers[rc*cn : (rc+1)*cn]
		for r := int(rb[rc]); r < int(rb[rc+1]); r++ {
			lo, hi := xa[r], xa[r+1]
			out := lo
			for k := lo; k < hi; k++ {
				col := ad[k]
				if m := marker[col]; m >= 0 {
					wt[m] += wt[k]
					continue
				}
				marker[col] = out
				ad[out] = col
				wt[out] = wt[k]
				out++
			}
			for k := lo; k < out; k++ {
				marker[ad[k]] = -1
			}
			newLen[r] = out - lo
		}
	})

	// Phase 6: serial post-dedup row starts, then parallel left-compaction
	// through a staging slab. In-place cross-chunk compaction races: after
	// any dedup removal, range rc+1's lowest write newStart[rb[rc+1]] sits
	// strictly below xa[rb[rc+1]], i.e. inside range rc's not-yet-read
	// source rows. Staging makes both sweeps trivially disjoint — the
	// gather writes only [newStart[rb[rc]], newStart[rb[rc+1]]) of the
	// staging slabs while reading ad/wt (which no one writes), the
	// copy-back writes the same disjoint ranges of ad/wt while reading
	// only staging — and runChunks fully joins between the two.
	newStart := growI32(&il.newStart, cn+1) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	newStart[0] = 0
	for r := 0; r < cn; r++ {
		newStart[r+1] = newStart[r] + newLen[r]
	}
	adStage := growI32(&il.adjStage, int(newStart[cn])) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	wtStage := growF(&il.wStage, int(newStart[cn]))     //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	runChunks(lim, rk, func(rc int) {                   //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
		for r := int(rb[rc]); r < int(rb[rc+1]); r++ {
			src, dst, l := xa[r], newStart[r], newLen[r]
			if l > 0 {
				copy(adStage[dst:dst+l], ad[src:src+l])
				copy(wtStage[dst:dst+l], wt[src:src+l])
			}
		}
	})
	runChunks(lim, rk, func(rc int) { //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
		lo, hi := newStart[rb[rc]], newStart[rb[rc+1]]
		if lo < hi {
			copy(ad[lo:hi], adStage[lo:hi])
			copy(wt[lo:hi], wtStage[lo:hi])
		}
	})
	copy(xa, newStart)
	lvl.g.adj = ad[:newStart[cn]]
	lvl.g.w = wt[:newStart[cn]]
	lvl.g.vw = vw
}

// gainInitChunked fills the per-pass FM starting gains across workers:
// each vertex's gain is an independent row scan written to gains[v], so
// the result equals the serial loop's. Kept out of fmRefine so the closure
// below doesn't force fmRefine's locals to escape (fmRefine runs on the
// small-graph serial path hundreds of times per PartitionToFit; a per-call
// heap cell there would undo the arena work).
//
//goldilocks:hotpath
func gainInitChunked(g *csrGraph, sideOf []int8, gains []float64, lim Limiter, scr *fmScratch) {
	n := g.n
	nb := edgeChunkBounds(g.xadj, n, inLevelChunks(n), &scr.bounds)
	xadj, adjn, wts := g.xadj, g.adj, g.w
	runChunks(lim, len(nb)-1, func(c int) { //lint:ignore allocfree in-level fan-out bookkeeping, amortized across the chunk loop
		for v := int(nb[c]); v < int(nb[c+1]); v++ {
			sv := sideOf[v]
			gain := 0.0
			for k := xadj[v]; k < xadj[v+1]; k++ {
				if sideOf[adjn[k]] == sv {
					gain -= wts[k]
				} else {
					gain += wts[k]
				}
			}
			gains[v] = gain
		}
	})
}
