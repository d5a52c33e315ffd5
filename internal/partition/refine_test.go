package partition

import (
	"math/rand"
	"sort"
	"testing"
)

// firstQueued returns the reference head of the queue: the vertex first in
// the total order among those with in[v] set.
func firstQueued(gains []float64, in []bool) int32 {
	best := -1
	for v, ok := range in {
		if ok && (best < 0 || legacyFMBefore(gains, v, best)) {
			best = v
		}
	}
	return int32(best)
}

// checkQueue asserts the heap invariant and the pos index.
func checkQueue(t *testing.T, q *gainQueue, in []bool) {
	t.Helper()
	size := 0
	for v, ok := range in {
		if !ok {
			if q.pos[v] != -1 {
				t.Fatalf("vertex %d out of the queue has pos %d", v, q.pos[v])
			}
			continue
		}
		size++
		if i := q.pos[v]; i < 0 || int(i) >= len(q.items) || q.items[i].v != int32(v) {
			t.Fatalf("pos[%d] = %d does not point at its item", v, i)
		}
	}
	if size != len(q.items) {
		t.Fatalf("queue holds %d items, model %d", len(q.items), size)
	}
	for i := 1; i < len(q.items); i++ {
		if q.items[i].before(&q.items[(i-1)/2]) {
			t.Fatalf("heap invariant broken at slot %d", i)
		}
	}
}

// TestGainQueueMatchesSortedOrder drives the indexed queue with random
// gains (many ties), random ± gain updates — including the negative
// deltas anti-affinity edges produce on "same side" moves — pops and
// re-pushes, and asserts every pop is the head of the total order and that
// the final drain equals a sort by (gain desc, tie asc, v asc).
func TestGainQueueMatchesSortedOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		gains := make([]float64, n)
		for v := range gains {
			gains[v] = float64(rng.Intn(7) - 3) // few distinct values: ties everywhere
		}
		scr := &fmScratch{}
		scr.grow(n)
		q := &scr.queue
		q.fill(gains)
		in := make([]bool, n)
		for v := range in {
			in[v] = true
		}
		checkQueue(t, q, in)

		for step := 0; step < 4*n; step++ {
			v := int32(rng.Intn(n))
			switch op := rng.Intn(4); {
			case op < 2: // gain update by ±2w, w of either sign
				gains[v] += 2 * float64(rng.Intn(9)-4)
				q.update(v, gains[v])
			case op == 2 && len(q.items) > 0:
				want := firstQueued(gains, in)
				it := q.pop()
				if it.v != want || it.gain != gains[want] {
					t.Fatalf("seed %d step %d: popped %d (gain %v), want %d (gain %v)",
						seed, step, it.v, it.gain, want, gains[want])
				}
				in[it.v] = false
			case op == 3 && !in[v]:
				q.push(v, gains[v])
				in[v] = true
			}
			checkQueue(t, q, in)
		}

		var want []int32
		for v, ok := range in {
			if ok {
				want = append(want, int32(v))
			}
		}
		sort.Slice(want, func(i, j int) bool { return legacyFMBefore(gains, int(want[i]), int(want[j])) })
		for i, w := range want {
			if got := q.pop().v; got != w {
				t.Fatalf("seed %d: drain position %d popped %d, want %d", seed, i, got, w)
			}
		}
		if len(q.items) != 0 {
			t.Fatalf("seed %d: %d items left after drain", seed, len(q.items))
		}
	}
}

// TestFMRefineAllocationFree pins the steady state: once the scratch has
// grown to the graph, an FM refinement — queue fill, pops, updates,
// parking and re-queueing — allocates nothing.
func TestFMRefineAllocationFree(t *testing.T) {
	for name, build := range detShapes() {
		g := build(1)
		c, a := testCSR(g)
		side := make([]int8, c.n)
		rng := rand.New(rand.NewSource(3))
		for v := range side {
			side[v] = int8(rng.Intn(2))
		}
		work := make([]int8, c.n)
		opts := DefaultOptions()
		run := func() {
			copy(work, side)
			fmRefine(c, work, opts, 0.5, nil, nil, &a.fm)
		}
		run() // grow the scratch outside the measurement
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: fmRefine allocated %v times per run", name, allocs)
		}
		putArena(a)
	}
}
