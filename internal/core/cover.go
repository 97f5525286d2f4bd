package core

import "sort"

// residualTol is the tolerance below which a residual demand is
// considered met; it absorbs floating-point error in the repeated
// subtraction of the inner loop (Algorithm 1 lines 8-13).
const residualTol = 1e-9

// coverProblem is the prepared view of an instance that the winner-set
// routines operate on. Bundles and their quality contributions are laid
// out CSR-style in two contiguous arrays indexed by a shared offset
// table, so the gain/apply hot loops walk a single cache-friendly span
// per worker instead of chasing a slice header per worker.
type coverProblem struct {
	numTasks int
	demands  []float64 // Q_j
	// offs[i]..offs[i+1] delimits worker i's span in taskIdx/qual;
	// len(offs) == numWorkers+1.
	offs    []int
	taskIdx []int     // task index per (worker, bundle-slot) entry
	qual    []float64 // q_ij per entry, parallel to taskIdx
	// totalQual[i] = sum_j q_ij, the static score the baseline auction
	// sorts by.
	totalQual []float64
	// evals counts marginal-gain evaluations, instrumenting the
	// lazy-vs-naive greedy ablation.
	evals int
}

// reset recomputes the cover view from a validated instance, reusing
// the problem's backing arrays. A zero coverProblem is valid input, so
// first builds and rebuilds share one code path.
func (cp *coverProblem) reset(inst *Instance) {
	cp.numTasks = inst.NumTasks
	cp.demands = cp.demands[:0]
	for j := 0; j < inst.NumTasks; j++ {
		cp.demands = append(cp.demands, inst.Demand(j))
	}
	cp.offs = cp.offs[:0]
	cp.taskIdx = cp.taskIdx[:0]
	cp.qual = cp.qual[:0]
	cp.totalQual = cp.totalQual[:0]
	for i := range inst.Workers {
		cp.offs = append(cp.offs, len(cp.taskIdx))
		total := 0.0
		for _, j := range inst.Workers[i].Bundle {
			q := qualityOf(inst.Skills[i][j])
			cp.taskIdx = append(cp.taskIdx, j)
			cp.qual = append(cp.qual, q)
			total += q
		}
		cp.totalQual = append(cp.totalQual, total)
	}
	cp.offs = append(cp.offs, len(cp.taskIdx))
	cp.evals = 0
}

// coverScratch holds every transient buffer the per-count winner-set
// routines need, so repeated cover computations allocate nothing once
// the buffers are warm. The slices returned by the cover routines alias
// the scratch and are only valid until its next use; callers persist
// them through arena.save.
type coverScratch struct {
	residual []float64
	cover    []float64
	selected []int
	active   []int
	order    []int
	// arena owns the winner-set memory that outlives the scratch: one
	// chunk per build holds every retained winner slice back to back.
	arena intArena
}

// intArena hands out immutable []int snapshots carved from a shared
// chunk, replacing one short-lived allocation per winner set with an
// amortized chunk allocation per build. reset reclaims the chunk, which
// invalidates every slice previously handed out — exactly the
// documented lifetime of Auction.Support between Rebuild calls.
type intArena struct {
	buf []int
}

// save copies xs into the arena and returns the stored slice, capped so
// callers appending to it can never clobber a neighbouring save.
func (a *intArena) save(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < len(xs) {
		size := 2 * cap(a.buf)
		if size < len(xs) {
			size = len(xs)
		}
		if size < 1024 {
			size = 1024
		}
		a.buf = make([]int, 0, size)
	}
	lo := len(a.buf)
	a.buf = append(a.buf, xs...)
	return a.buf[lo:len(a.buf):len(a.buf)]
}

// reset reclaims the current chunk for the next build. Slices handed
// out before the reset become invalid.
func (a *intArena) reset() { a.buf = a.buf[:0] }

// gain returns the marginal coverage sum_j min(residual_j, q_ij) worker
// i would contribute given the current residual demands (Algorithm 1
// line 9).
func (cp *coverProblem) gain(i int, residual []float64) float64 {
	cp.evals++
	g := 0.0
	for k := cp.offs[i]; k < cp.offs[i+1]; k++ {
		r := residual[cp.taskIdx[k]]
		if r <= 0 {
			continue
		}
		q := cp.qual[k]
		if q < r {
			g += q
		} else {
			g += r
		}
	}
	return g
}

// apply commits worker i's contribution: residual_j -= min(residual_j,
// q_ij) (Algorithm 1 lines 12-13). It returns the total coverage
// removed.
func (cp *coverProblem) apply(i int, residual []float64) float64 {
	removed := 0.0
	for k := cp.offs[i]; k < cp.offs[i+1]; k++ {
		j := cp.taskIdx[k]
		r := residual[j]
		if r <= 0 {
			continue
		}
		q := cp.qual[k]
		if q < r {
			residual[j] = r - q
			removed += q
		} else {
			residual[j] = 0
			removed += r
		}
	}
	return removed
}

// minFeasibleCount returns the smallest candidate count k for which the
// first k bid-sorted workers can cover every demand at all — the
// paper's notion of a feasible price (Section IV) — or len(sorted)+1
// when no prefix can. Coverage accumulates over the prefix in one
// pass, so each task's running sum at k is exactly its sum over the
// first k candidates; feasibility is monotone in k because every q_ij
// is non-negative.
func (cp *coverProblem) minFeasibleCount(s *coverScratch, sorted []int) int {
	cover := s.cover[:0]
	unmet := 0
	for j := 0; j < cp.numTasks; j++ {
		cover = append(cover, 0)
		if 0 < cp.demands[j]-residualTol {
			unmet++
		}
	}
	s.cover = cover
	if unmet == 0 {
		return 0
	}
	for p, i := range sorted {
		for k := cp.offs[i]; k < cp.offs[i+1]; k++ {
			j := cp.taskIdx[k]
			need := cp.demands[j] - residualTol
			was := cover[j] < need
			cover[j] += cp.qual[k]
			if was && !(cover[j] < need) {
				unmet--
			}
		}
		if unmet == 0 {
			return p + 1
		}
	}
	return len(sorted) + 1
}

// gainItem is a heap entry for the lazy-greedy selection.
type gainItem struct {
	worker int
	// rank is the candidate's position in the bid-sorted order; ties on
	// gain break toward the smaller rank, exactly matching the
	// first-max behaviour of the naive argmax scan.
	rank int
	gain float64
	// round is the greedy step the gain was evaluated at; a popped
	// entry from an earlier step is re-evaluated before being trusted.
	round int
}

// gainHeap is a max-heap on gain with ties broken toward the earlier
// candidate rank. less is a strict total order (ranks are unique), so
// the root — and with it the lazy re-evaluation sequence — depends only
// on the set of entries, never on how they are laid out.
type gainHeap []gainItem

func (h gainHeap) less(a, b int) bool {
	//mcslint:allow MCS-FLT001 comparator tie-break: a tolerance here would break strict weak ordering; exact inequality deterministically falls through to rank
	if h[a].gain != h[b].gain {
		return h[a].gain > h[b].gain
	}
	return h[a].rank < h[b].rank
}

// siftDown restores the heap property below i0 within h[:n].
func (h gainHeap) siftDown(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// initHeap establishes the heap property over the whole slice.
func (h gainHeap) initHeap() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}

// popTop removes the root.
func (h gainHeap) popTop() gainHeap {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h.siftDown(0, n)
	return h[:n]
}

// coverChain computes Algorithm 1's greedy winner set (lines 8-13) for
// a rising sequence of candidate counts by carrying one greedy
// trajectory forward instead of solving each count from scratch.
//
// For a fixed candidate set the greedy is a pure function: at step t it
// selects the candidate with the largest marginal gain against the
// residual r_t, ties to the smaller rank, and stops once the residual
// total drops to residualTol or no candidate has a positive gain. Lazy
// (CELF) evaluation finds that argmax exactly: the gain
// sum_j min(r_j, q_ij) is submodular, so — in floating point too, since
// min and rounded addition are monotone — any gain evaluated at an
// earlier step bounds every later one.
//
// Raising the count from k to k' only adds candidates whose ranks are
// at least k, so they lose every tie against the recorded selections.
// The greedy over k' therefore repeats k's trajectory up to the first
// step d where a new candidate's gain strictly beats the selected gain
// (or, on a trajectory that ran out of candidates, is positive at all).
// extend finds d with lazy bounds; if there is none the trajectory is
// reused unchanged, otherwise resume restarts CELF at step d from the
// recorded residual r_d. Theorem 5's O(N^2 K) stays the worst case —
// every count can diverge at step 0 — but consecutive counts share
// almost all of their selections in practice.
//
// All buffers are reused across builds; the winner slice aliases the
// chain and must be persisted (intArena.save) before the next extend.
type coverChain struct {
	// ranks holds one entry per bid-sorted candidate the trajectory
	// currently covers.
	ranks []chainRank
	// steps and winners record the selections in order.
	steps   []chainStep
	winners []int
	// remain[t] is the residual demand total before step t, tracked by
	// subtraction exactly as the greedy does; len(steps)+1 entries.
	remain []float64
	// resid holds the residual vector before step t in row t: a flat
	// (len(steps)+1) x numTasks slice.
	resid []float64
	heap  gainHeap
}

// chainRank is the chain's state for one candidate, indexed by rank.
type chainRank struct {
	// init is the gain against the full demand, evaluated once per
	// build when the candidate enters.
	init float64
	// bound is the latest gain evaluated on the current trajectory, at
	// step boundAt; it bounds the gain at every step from boundAt on.
	bound   float64
	boundAt int
	// selAt is the step that selected the candidate, or -1.
	selAt int
}

// chainStep is one greedy selection: the selected rank and its gain.
type chainStep struct {
	rank int
	gain float64
}

// reset starts an empty trajectory over zero candidates for a build of
// n workers, sizing every buffer that n bounds so the chain allocates
// nothing more once warm.
func (c *coverChain) reset(cp *coverProblem, n int) {
	if cap(c.ranks) < n {
		c.ranks = make([]chainRank, 0, n)
		c.steps = make([]chainStep, 0, n)
		c.winners = make([]int, 0, n)
		c.remain = make([]float64, 0, n+1)
		c.heap = make(gainHeap, 0, n)
	}
	c.ranks, c.steps, c.winners = c.ranks[:0], c.steps[:0], c.winners[:0]
	c.resid = append(c.resid[:0], cp.demands...)
	remaining := 0.0
	for _, r := range cp.demands {
		remaining += r
	}
	c.remain = append(c.remain[:0], remaining)
}

// covered reports whether the trajectory meets every demand.
func (c *coverChain) covered() bool { return c.remain[len(c.steps)] <= residualTol }

// row returns the residual vector before step t.
func (c *coverChain) row(t, numTasks int) []float64 {
	return c.resid[t*numTasks : (t+1)*numTasks]
}

// pushRow appends a copy of the last residual row and returns it,
// doubling the backing array when full.
func (c *coverChain) pushRow(numTasks int) []float64 {
	n := len(c.resid)
	if n+numTasks > cap(c.resid) {
		grown := make([]float64, n, 2*(n+numTasks))
		copy(grown, c.resid)
		c.resid = grown
	}
	c.resid = c.resid[:n+numTasks]
	copy(c.resid[n:], c.resid[n-numTasks:n])
	return c.resid[n:]
}

// extend grows the candidate set to the first count bid-sorted workers
// (count >= len(c.ranks)) and updates the trajectory to the greedy over
// them. It reports whether the trajectory changed.
func (cp *coverProblem) extend(c *coverChain, sorted []int, count int) bool {
	lo := len(c.ranks)
	for p := lo; p < count; p++ {
		g := cp.gain(sorted[p], cp.demands)
		c.ranks = append(c.ranks, chainRank{init: g, bound: g, selAt: -1})
	}
	for t := 0; t <= len(c.steps); t++ {
		// A newcomer displaces step t's selection only by strictly
		// beating its gain; at the end of an uncovered trajectory any
		// positive gain extends it.
		beat := 0.0
		if t < len(c.steps) {
			beat = c.steps[t].gain
		} else if c.covered() {
			return false
		}
		for p := lo; p < count; p++ {
			r := &c.ranks[p]
			if r.bound <= beat {
				continue
			}
			if r.boundAt != t {
				r.bound, r.boundAt = cp.gain(sorted[p], c.row(t, cp.numTasks)), t
				if r.bound <= beat {
					continue
				}
			}
			cp.resume(c, sorted, t)
			return true
		}
	}
	return false
}

// resume truncates the trajectory to its first d steps and continues
// lazy greedy from the residual before step d over every current
// candidate. Each heap entry starts from the candidate's latest bound
// on the kept prefix; bounds evaluated after step d belong to the
// discarded suffix and fall back to the full-demand gain.
func (cp *coverProblem) resume(c *coverChain, sorted []int, d int) {
	for _, st := range c.steps[d:] {
		c.ranks[st.rank].selAt = -1
	}
	k := cp.numTasks
	c.steps, c.winners, c.remain = c.steps[:d], c.winners[:d], c.remain[:d+1]
	c.resid = c.resid[:(d+1)*k]

	h := c.heap[:0]
	for p := range c.ranks {
		r := &c.ranks[p]
		if r.selAt >= 0 {
			continue
		}
		if r.boundAt > d {
			r.bound, r.boundAt = r.init, 0
		}
		if r.bound > 0 {
			h = append(h, gainItem{worker: sorted[p], rank: p, gain: r.bound, round: r.boundAt})
		}
	}
	h.initHeap()

	residual := c.row(d, k)
	remaining := c.remain[d]
	round := d
	for remaining > residualTol && len(h) > 0 {
		top := h[0]
		if top.round != round {
			// Stale bound: re-evaluate against the current residual and
			// reposition. The fresh gain is never larger.
			fresh := cp.gain(top.worker, residual)
			c.ranks[top.rank].bound, c.ranks[top.rank].boundAt = fresh, round
			if fresh <= 0 {
				h = h.popTop()
				continue
			}
			h[0].gain = fresh
			h[0].round = round
			h.siftDown(0, len(h))
			continue
		}
		h = h.popTop()
		c.ranks[top.rank].selAt = round
		c.steps = append(c.steps, chainStep{rank: top.rank, gain: top.gain})
		c.winners = append(c.winners, top.worker)
		residual = c.pushRow(k)
		remaining -= cp.apply(top.worker, residual)
		c.remain = append(c.remain, remaining)
		round++
	}
	c.heap = h
}

// greedyCoverNaive is the literal transcription of Algorithm 1 lines
// 8-13: a full argmax scan over the remaining candidates per selection.
// It must produce exactly the same winner set as coverChain does for
// the same candidate count; the chain exists purely to cut the number
// of gain evaluations. The returned slice aliases s and is only valid
// until s is next used.
func (cp *coverProblem) greedyCoverNaive(s *coverScratch, candidates []int) ([]int, bool) {
	residual := append(s.residual[:0], cp.demands...)
	s.residual = residual
	remaining := 0.0
	for _, r := range residual {
		remaining += r
	}
	active := append(s.active[:0], candidates...)
	selected := s.selected[:0]
	defer func() { s.active, s.selected = active, selected }()
	for remaining > residualTol {
		bestIdx := -1
		bestGain := 0.0
		for k, i := range active {
			g := cp.gain(i, residual)
			if g > bestGain {
				bestGain = g
				bestIdx = k
			}
		}
		if bestIdx < 0 {
			return selected, false
		}
		w := active[bestIdx]
		active = append(active[:bestIdx], active[bestIdx+1:]...)
		remaining -= cp.apply(w, residual)
		selected = append(selected, w)
	}
	return selected, true
}

// staticOrder sorts candidate indices descending by static total
// quality with an index tie-break. The comparator is a strict total
// order (indices are unique), so the unstable sort.Sort produces
// exactly the sequence the previous sort.SliceStable did, without the
// per-call closure and reflection allocations.
type staticOrder struct {
	idx  []int
	qual []float64
}

func (s *staticOrder) Len() int      { return len(s.idx) }
func (s *staticOrder) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *staticOrder) Less(a, b int) bool {
	//mcslint:allow MCS-FLT001 comparator tie-break: exact inequality keeps the order a strict weak ordering and falls through to index
	if s.qual[s.idx[a]] != s.qual[s.idx[b]] {
		return s.qual[s.idx[a]] > s.qual[s.idx[b]]
	}
	return s.idx[a] < s.idx[b]
}

// staticCover implements the baseline auction of Section VII-A: select
// candidates in descending order of their static total quality
// sum_j q_ij (ignoring what is already covered) until every task's
// error-bound constraint is satisfied. The returned slice aliases s and
// is only valid until s is next used.
func (cp *coverProblem) staticCover(s *coverScratch, candidates []int) ([]int, bool) {
	order := append(s.order[:0], candidates...)
	s.order = order
	sort.Sort(&staticOrder{idx: order, qual: cp.totalQual})
	residual := append(s.residual[:0], cp.demands...)
	s.residual = residual
	remaining := 0.0
	for _, r := range residual {
		remaining += r
	}
	selected := s.selected[:0]
	for _, i := range order {
		if remaining <= residualTol {
			break
		}
		removed := cp.apply(i, residual)
		if removed <= 0 {
			continue
		}
		remaining -= removed
		selected = append(selected, i)
	}
	s.selected = selected
	return selected, remaining <= residualTol
}
