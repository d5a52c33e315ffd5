package partition

import (
	"strconv"

	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
)

// balanceState tracks the per-side resource totals of a bisection and
// answers whether a vertex move keeps every dimension within the allowed
// imbalance. frac is the target share of total weight for side 1 (0.5 for
// an even bisection; k-way partitioning with odd k uses other targets).
type balanceState struct {
	side    [2]resources.Vector
	count   [2]int
	maxSide [2]resources.Vector // per-dimension cap per side
}

func newBalanceState(g *csrGraph, sideOf []int8, eps, frac float64) balanceState {
	var b balanceState
	total := g.totalVertexWeight()
	for v := 0; v < g.n; v++ {
		s := sideOf[v]
		b.side[s] = b.side[s].Add(g.vw[v])
		b.count[s]++
	}
	b.maxSide[1] = total.Scale(frac * (1 + eps))
	b.maxSide[0] = total.Scale((1 - frac) * (1 + eps))
	return b
}

// canMove reports whether moving a vertex of weight w from side `from` keeps
// the bisection legal: the destination side must stay under the cap in every
// dimension and the source side must not become empty.
func (b *balanceState) canMove(w resources.Vector, from int8) bool {
	if b.count[from] <= 1 {
		return false
	}
	to := 1 - from
	return b.side[to].Add(w).Fits(b.maxSide[to])
}

func (b *balanceState) apply(w resources.Vector, from int8) {
	to := 1 - from
	b.side[from] = b.side[from].Sub(w)
	b.side[to] = b.side[to].Add(w)
	b.count[from]--
	b.count[to]++
}

// isBalanced reports whether both sides currently respect the cap.
func (b *balanceState) isBalanced() bool {
	return b.side[0].Fits(b.maxSide[0]) && b.side[1].Fits(b.maxSide[1])
}

// gainItem is one gain-queue entry: a vertex, its current FM gain and its
// fixed tie-break key.
type gainItem struct {
	gain float64
	tie  uint64
	v    int32
}

// before is the queue's total order: gain descending, then the tie key
// ascending, then the vertex id ascending. The tie key is
// splitmix64(uint64(v)) rather than v itself because container ids are
// assigned app by app, so "v ascending" would bias equal-gain moves toward
// some apps; the hash spreads them evenly. No two items compare equal, so
// the pop sequence is a function of the gains alone, never of the heap
// layout or the order of earlier updates.
func (a *gainItem) before(b *gainItem) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.v < b.v
}

// gainQueue is an indexed binary max-heap over gainItems in the before
// order. Each vertex is in the queue at most once; pos[v] is its slot, or
// −1 while it is out (popped, parked or locked). A gain change sifts the
// item in place instead of pushing a duplicate, so the queue never holds
// stale entries. Both slices are fmScratch memory sized by grow.
type gainQueue struct {
	items []gainItem
	pos   []int32
}

// fill loads every vertex with its gain from gains and establishes the
// heap invariant bottom-up.
//
//goldilocks:hotpath
func (q *gainQueue) fill(gains []float64) {
	n := len(gains)
	q.items = q.items[:n]
	for v, gain := range gains {
		q.items[v] = gainItem{gain: gain, tie: splitmix64(uint64(v)), v: int32(v)}
		q.pos[v] = int32(v)
	}
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// push inserts v, which must be out of the queue, with the given gain.
//
//goldilocks:hotpath
func (q *gainQueue) push(v int32, gain float64) {
	i := len(q.items)
	q.items = append(q.items, gainItem{gain: gain, tie: splitmix64(uint64(v)), v: v})
	q.pos[v] = int32(i)
	q.up(i)
}

// pop removes and returns the first item in the before order.
//
//goldilocks:hotpath
func (q *gainQueue) pop() gainItem {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.pos[q.items[0].v] = 0
	q.items = q.items[:last]
	q.pos[top.v] = -1
	if last > 0 {
		q.down(0)
	}
	return top
}

// update sets v's gain, if v is queued, and sifts it toward the side the
// gain actually moved. The direction must come from the sign of the
// change, not from the side relation of the moved edge: anti-affinity
// edges carry negative weights, so "now on the same side" can raise a
// gain.
//
//goldilocks:hotpath
func (q *gainQueue) update(v int32, gain float64) {
	i := q.pos[v]
	if i < 0 {
		return
	}
	old := q.items[i].gain
	q.items[i].gain = gain
	if gain > old {
		q.up(int(i))
	} else if gain < old {
		q.down(int(i))
	}
}

//goldilocks:hotpath
func (q *gainQueue) up(j int) {
	s := q.items
	it := s[j]
	for j > 0 {
		i := (j - 1) / 2
		if !it.before(&s[i]) {
			break
		}
		s[j] = s[i]
		q.pos[s[j].v] = int32(j)
		j = i
	}
	s[j] = it
	q.pos[it.v] = int32(j)
}

//goldilocks:hotpath
func (q *gainQueue) down(i int) {
	s := q.items
	n := len(s)
	it := s[i]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].before(&s[j]) {
			j = j2
		}
		if !s[j].before(&it) {
			break
		}
		s[i] = s[j]
		q.pos[s[i].v] = int32(i)
		i = j
	}
	s[i] = it
	q.pos[it.v] = int32(i)
}

// fmRefine runs Fiduccia–Mattheyses passes on the bisection in sideOf,
// mutating it in place, and returns the resulting cut weight. frac is side
// 1's target weight share. Passes repeat until no pass improves the cut or
// opts.FMPasses is exhausted. span, when non-nil, receives one event per
// pass with the resulting cut (the "FM refinement rounds" detail of the
// trace). scr is caller-owned working memory (arena or try scratch), so
// refinement allocates nothing once the scratch has grown to the graph's
// size.
//
// A pass is specified as: repeatedly move the first vertex, in the
// gainItem.before order over current gains, that is unlocked and passes
// canMove, lock it, and update its neighbors' gains (uphill moves
// included); then roll back to the best prefix of the move sequence. A
// vertex found unmovable ahead of that first movable one is parked — set
// aside until a later move could make it movable — or, from inLevelMinN
// vertices up, locked for the rest of the pass (parking is quadratic when
// a large unmovable set meets a long move sequence; the next pass
// reconsiders the vertex with fresh gains). After a move from side a to
// side b only vertices parked on side b can have become movable, since
// side a just got lighter and side b heavier, so only those are re-checked
// and re-queued. Because the order is total, this is the same move
// sequence as re-offering every parked vertex after every move.
//
// lim, when non-nil and the graph is large, fans the per-pass gain
// initialization out across workers: each vertex's starting gain is an
// independent row scan. The move loop itself stays strictly serial: move
// order is the algorithm's output.
//
//goldilocks:hotpath
func fmRefine(g *csrGraph, sideOf []int8, opts Options, frac float64, span *telemetry.Span, lim Limiter, scr *fmScratch) float64 {
	n := g.n
	if n == 0 {
		return 0
	}
	bal := newBalanceState(g, sideOf, opts.BalanceEps, frac)
	cut := g.cutWeight(sideOf)

	scr.grow(n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	gains := scr.gains
	locked := scr.locked
	q := &scr.queue
	moves := scr.moves[:0]
	xadj, adjn, wts, vw := g.xadj, g.adj, g.w, g.vw
	lockUnmovable := n >= inLevelMinN

	for pass := 0; pass < opts.FMPasses; pass++ {
		if useInLevel(n, lim) {
			// The chunked init lives in its own function: a closure here
			// would make every captured local escape, and the per-call
			// heap cells would cost an allocation on the small-graph
			// serial path too (fmRefine runs hundreds of times per
			// PartitionToFit).
			gainInitChunked(g, sideOf, gains, lim, scr)
		} else {
			for v := 0; v < n; v++ {
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
		}
		clear(locked)
		q.fill(gains)
		parked := [2][]int32{scr.parked[0][:0], scr.parked[1][:0]}

		moves = moves[:0]
		curCut := cut
		bestCut := cut
		bestPrefix := 0

		for len(q.items) > 0 {
			it := q.pop()
			v := it.v
			from := sideOf[v]
			if !bal.canMove(vw[v], from) {
				if lockUnmovable {
					locked[v] = true
				} else {
					parked[from] = append(parked[from], v)
				}
				continue
			}
			// Apply the tentative move.
			bal.apply(vw[v], from)
			to := 1 - from
			sideOf[v] = to
			locked[v] = true
			curCut -= it.gain
			moves = append(moves, v)
			if curCut < bestCut-1e-12 {
				bestCut = curCut
				bestPrefix = len(moves)
			}
			// Update unlocked neighbors' gains: u's edge to v flipped
			// side, so its gain moves by ±2·w depending on whether they
			// now differ.
			for k := xadj[v]; k < xadj[v+1]; k++ {
				u := adjn[k]
				if locked[u] {
					continue
				}
				if sideOf[u] == to {
					gains[u] -= 2 * wts[k]
				} else {
					gains[u] += 2 * wts[k]
				}
				q.update(u, gains[u])
			}
			// Re-queue the vertices parked on the destination side that
			// the move made movable.
			kept := parked[to][:0]
			for _, u := range parked[to] {
				if bal.canMove(vw[u], to) {
					q.push(u, gains[u])
				} else {
					kept = append(kept, u)
				}
			}
			parked[to] = kept
		}

		// Roll back moves after the best prefix.
		for i := len(moves) - 1; i >= bestPrefix; i-- {
			v := moves[i]
			bal.apply(vw[v], sideOf[v])
			sideOf[v] = 1 - sideOf[v]
		}
		if span.Enabled() {
			// telemetry.Itoa serves the pass/moves labels from its
			// small-int cache, so a traced refinement round costs no
			// strconv calls for the common values.
			span.Event("fm-pass", //lint:ignore allocfree traced-only span event formatting; untraced runs never take this branch
				telemetry.Attr{Key: "pass", Val: telemetry.Itoa(pass)},
				telemetry.Attr{Key: "cut", Val: strconv.FormatFloat(bestCut, 'g', -1, 64)}, //lint:ignore allocfree traced-only span event formatting; untraced runs never take this branch
				telemetry.Attr{Key: "moves", Val: telemetry.Itoa(bestPrefix)})
		}
		if bestCut >= cut-1e-12 {
			cut = bestCut
			break // converged: no improvement this pass
		}
		cut = bestCut
	}
	scr.moves = moves
	return cut
}
