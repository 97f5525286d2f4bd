package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// scratchFeasible is the per-count feasibility check the build ran
// before minFeasibleCount: does taking every candidate meet every
// task's demand?
func scratchFeasible(cp *coverProblem, cands []int) bool {
	cover := make([]float64, cp.numTasks)
	for _, i := range cands {
		for k := cp.offs[i]; k < cp.offs[i+1]; k++ {
			cover[cp.taskIdx[k]] += cp.qual[k]
		}
	}
	for j, c := range cover {
		if c < cp.demands[j]-residualTol {
			return false
		}
	}
	return true
}

// gainRef is the reference marginal gain with both branches spelled
// out: it skips met tasks and picks min(q, r) by comparison. The
// branch-free gain must match it bit for bit on every residual the
// greedy can reach.
func gainRef(cp *coverProblem, i int, residual []float64) float64 {
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

// gainMismatch compares gain with gainRef for every worker against
// residual, bit for bit.
func gainMismatch(cp *coverProblem, residual []float64) error {
	for i := 0; i+1 < len(cp.offs); i++ {
		got, want := cp.gain(i, residual), gainRef(cp, i, residual)
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("worker %d against %v: gain %v (%#x), reference %v (%#x)",
				i, residual, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	return nil
}

// TestGainMatchesReference pins the branch-free gain to the two-branch
// loop on the cases where the branches used to matter: a task met by
// apply (residual +0), quality equal to the residual, zero quality
// (theta 0.5) and quality above the residual.
func TestGainMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		demands []float64
		bundles [][]int
		thetas  [][]float64 // per bundle entry
		applied []int       // workers applied before the check, in order
		worker  int
		want    float64
	}{
		{name: "residual met by apply", demands: []float64{0.25, 1},
			bundles: [][]int{{0, 1}, {0, 1}}, thetas: [][]float64{{0, 0.75}, {1, 1}},
			applied: []int{0}, worker: 1, want: 0.75},
		{name: "quality equals residual", demands: []float64{0.25},
			bundles: [][]int{{0}}, thetas: [][]float64{{0.75}}, worker: 0, want: 0.25},
		{name: "zero quality", demands: []float64{0.7, 0.7},
			bundles: [][]int{{0, 1}}, thetas: [][]float64{{0.5, 0.5}}, worker: 0, want: 0},
		{name: "zero quality on a met task", demands: []float64{0.25},
			bundles: [][]int{{0}, {0}}, thetas: [][]float64{{1}, {0.5}},
			applied: []int{0}, worker: 1, want: 0},
		{name: "quality above residual", demands: []float64{0.3, 0.04},
			bundles: [][]int{{0, 1}}, thetas: [][]float64{{1, 0.9}}, worker: 0, want: 0.34},
		{name: "every branch at once", demands: []float64{0.25, 0.25, 0.5, 2},
			bundles: [][]int{{0}, {0, 1, 2, 3}}, thetas: [][]float64{{1}, {0.9, 0.75, 0.5, 0.8}},
			applied: []int{0}, worker: 1, want: 0.25 + 0.36},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := coverProblem{numTasks: len(tc.demands), demands: tc.demands}
			for i, bundle := range tc.bundles {
				cp.offs = append(cp.offs, len(cp.taskIdx))
				for k, j := range bundle {
					cp.taskIdx = append(cp.taskIdx, j)
					cp.qual = append(cp.qual, qualityOf(tc.thetas[i][k]))
				}
			}
			cp.offs = append(cp.offs, len(cp.taskIdx))
			residual := append([]float64(nil), tc.demands...)
			for _, i := range tc.applied {
				if err := gainMismatch(&cp, residual); err != nil {
					t.Fatal(err)
				}
				cp.apply(i, residual)
			}
			if err := gainMismatch(&cp, residual); err != nil {
				t.Fatal(err)
			}
			if got := cp.gain(tc.worker, residual); math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("gain(%d) = %v, want %v", tc.worker, got, tc.want)
			}
		})
	}
}

// scratchGreedy is the from-scratch lazy greedy RuleGreedy ran for each
// distinct candidate count before the chain: a fresh heap of every
// candidate's full-demand gain, then CELF until the demands are met or
// no candidate has a positive gain. The chain must reproduce it bit for
// bit at every count.
func scratchGreedy(cp *coverProblem, cands []int) ([]int, bool) {
	residual := append([]float64(nil), cp.demands...)
	remaining := 0.0
	for _, r := range residual {
		remaining += r
	}
	if remaining <= residualTol {
		return nil, true
	}
	var h gainHeap
	for rank, i := range cands {
		if g := cp.gain(i, residual); g > 0 {
			h = append(h, gainItem{worker: i, rank: rank, gain: g})
		}
	}
	h.initHeap()
	var selected []int
	round := 0
	for remaining > residualTol && len(h) > 0 {
		top := h[0]
		if top.round != round {
			fresh := cp.gain(top.worker, residual)
			if fresh <= 0 {
				h = h.popTop()
				continue
			}
			h[0].gain, h[0].round = fresh, round
			h.siftDown(0, len(h))
			continue
		}
		h = h.popTop()
		remaining -= cp.apply(top.worker, residual)
		selected = append(selected, top.worker)
		round++
	}
	return selected, remaining <= residualTol
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chainMismatch checks a built auction's winner set for every distinct
// candidate count against the per-count solve it replaced: the
// feasibility check, then the from-scratch greedy (or nothing).
func chainMismatch(a *Auction) error {
	bs := a.bs
	for _, count := range bs.distinct {
		got := bs.cache[count]
		var want coverResult
		cands := bs.sorted[:count]
		if scratchFeasible(&bs.cp, cands) {
			want.winners, want.feasible = scratchGreedy(&bs.cp, cands)
		}
		if !sameInts(got.winners, want.winners) || got.feasible != want.feasible {
			return fmt.Errorf("count %d: chained %v feasible=%v, from scratch %v feasible=%v",
				count, got.winners, got.feasible, want.winners, want.feasible)
		}
	}
	return nil
}

// chainStepTrace records what one extend did.
type chainStepTrace struct {
	count   int
	changed bool
	// diverge is the first selection step that differs from the
	// previous count's trajectory, or -1 when none does.
	diverge int
	winners []int
}

// traceEveryCount drives a fresh chain over every candidate count
// 0..N of inst's bid order — not just the counts a price grid picks,
// and including counts below the minimum feasible one — and checks
// each trajectory against scratchGreedy and minFeasibleCount against
// scratchFeasible.
func traceEveryCount(inst Instance) ([]chainStepTrace, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	var cp coverProblem
	cp.reset(&inst)
	n := len(inst.Workers)
	sorted := make([]int, n)
	for i := range sorted {
		sorted[i] = i
	}
	sort.Sort(&bidOrder{idx: sorted, workers: inst.Workers})
	var s coverScratch
	minCount := cp.minFeasibleCount(&s, sorted)
	var c coverChain
	c.reset(&cp, n)
	trace := make([]chainStepTrace, 0, n+1)
	for count := 0; count <= n; count++ {
		prev := append([]int(nil), c.winners...)
		changed := cp.extend(&c, sorted, count)
		want, wantCovered := scratchGreedy(&cp, sorted[:count])
		if !sameInts(c.winners, want) || c.covered() != wantCovered {
			return nil, fmt.Errorf("count %d: chained %v covered=%v, from scratch %v covered=%v",
				count, c.winners, c.covered(), want, wantCovered)
		}
		if (count >= minCount) != scratchFeasible(&cp, sorted[:count]) {
			return nil, fmt.Errorf("count %d: minFeasibleCount %d disagrees with the per-count check", count, minCount)
		}
		st := chainStepTrace{count: count, changed: changed, diverge: -1, winners: append([]int(nil), c.winners...)}
		for d := 0; d < len(prev) || d < len(c.winners); d++ {
			if d >= len(prev) || d >= len(c.winners) || prev[d] != c.winners[d] {
				st.diverge = d
				break
			}
		}
		if !changed && st.diverge >= 0 {
			return nil, fmt.Errorf("count %d: extend reported no change but the trajectory moved at step %d", count, st.diverge)
		}
		trace = append(trace, st)
	}
	return trace, nil
}

// checkBuilds builds inst with the default support and with the grid as
// an explicit price set, and checks both against the per-count solve.
// It reports how many builds were feasible.
func checkBuilds(inst Instance) (int, error) {
	built := 0
	for _, opts := range [][]Option{nil, {WithPriceSet(inst.PriceGrid)}} {
		a, err := New(inst, opts...)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			return built, err
		}
		built++
		if err := chainMismatch(a); err != nil {
			return built, err
		}
	}
	return built, nil
}

// tiedInstance draws workers from a handful of (bid, bundle, skill)
// patterns, so equal bids, duplicate bundles and exact gain ties are
// common: every tie must break toward the lower bid-sorted rank.
func tiedInstance(r *rand.Rand) Instance {
	inst := feasibleRandomInstance(r)
	patterns := 1 + r.Intn(4)
	for i := range inst.Workers {
		src := r.Intn(patterns)
		inst.Workers[i].Bid = inst.Workers[src].Bid
		inst.Workers[i].Bundle = append([]int(nil), inst.Workers[src].Bundle...)
		inst.Skills[i] = append([]float64(nil), inst.Skills[src]...)
	}
	return inst
}

// TestChainMatchesScratch is the differential test for the greedy
// chain: across many random instances, with and without ties, with the
// default support and a fixed price set, every distinct count's winner
// set and feasibility equal the from-scratch per-count solve, and so
// does every count 0..N of the raw chain.
func TestChainMatchesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(1201))
	built := 0
	for trial := 0; trial < 300; trial++ {
		var inst Instance
		switch trial % 3 {
		case 0:
			inst = randomInstance(r)
		case 1:
			inst = feasibleRandomInstance(r)
		default:
			inst = tiedInstance(r)
		}
		b, err := checkBuilds(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		built += b
		if _, err := traceEveryCount(inst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if built < 150 {
		t.Fatalf("only %d feasible builds checked", built)
	}
}

// TestChainGainTies: identical workers (same bid, bundle and skills)
// tie on every gain; the chain must pick the lower rank exactly as the
// from-scratch heap does, and a newcomer that only ties a selection
// must never displace it.
func TestChainGainTies(t *testing.T) {
	inst := tinyInstance()
	for _, w := range []int{0, 1, 2, 3} {
		inst.Workers = append(inst.Workers, Worker{ID: inst.Workers[w].ID + "'", Bundle: inst.Workers[w].Bundle, Bid: inst.Workers[w].Bid})
		inst.Skills = append(inst.Skills, append([]float64(nil), inst.Skills[w]...))
	}
	trace, err := traceEveryCount(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Each duplicate sorts right after its original and ties it at
	// every step, so once the originals cover the demand a duplicate's
	// entry must leave the trajectory alone.
	kept := 0
	for _, st := range trace[1:] {
		if !st.changed && len(st.winners) > 0 {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("no duplicate left the trajectory unchanged")
	}
	if _, err := checkBuilds(inst); err != nil {
		t.Fatal(err)
	}
}

// TestChainKeepsTrajectory: workers that enter after the demand is met
// and never beat a selected gain leave the trajectory untouched, and
// every later count shares the earlier count's winner slice.
func TestChainKeepsTrajectory(t *testing.T) {
	inst := tinyInstance()
	for i := 0; i < 4; i++ {
		inst.Workers = append(inst.Workers, Worker{ID: fmt.Sprintf("weak%d", i), Bundle: []int{i % 3}, Bid: 21 + float64(i)})
		inst.Skills = append(inst.Skills, []float64{0.6, 0.6, 0.6})
	}
	inst.PriceGrid = PriceGridRange(5, 25, 0.5)
	trace, err := traceEveryCount(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range trace[5:] {
		if st.changed {
			t.Fatalf("count %d: weak newcomer changed the trajectory to %v", st.count, st.winners)
		}
	}
	a := mustAuction(t, inst)
	if err := chainMismatch(a); err != nil {
		t.Fatal(err)
	}
	sup := a.Support()
	last := sup[len(sup)-1].Winners
	shared := 0
	for _, info := range sup {
		if len(info.Winners) > 0 && &info.Winners[0] == &last[0] {
			shared++
		}
	}
	if shared < 2 {
		t.Fatalf("unchanged counts should share one winner slice; %d prices share the last one", shared)
	}
}

// TestChainDivergesAtStepZero: a late, expensive worker who covers
// every task better than anyone displaces the very first selection.
func TestChainDivergesAtStepZero(t *testing.T) {
	inst := tinyInstance()
	inst.Workers = append(inst.Workers, Worker{ID: "star", Bundle: []int{0, 1, 2}, Bid: 24})
	inst.Skills = append(inst.Skills, []float64{0.99, 0.99, 0.99})
	trace, err := traceEveryCount(inst)
	if err != nil {
		t.Fatal(err)
	}
	st := trace[len(inst.Workers)]
	if !st.changed || st.diverge != 0 || st.winners[0] != len(inst.Workers)-1 {
		t.Fatalf("star entry: changed=%v diverge=%d winners=%v, want divergence at step 0 led by the star",
			st.changed, st.diverge, st.winners)
	}
	if _, err := checkBuilds(inst); err != nil {
		t.Fatal(err)
	}
}

// TestChainInfeasiblePrefixes: with an explicit price set reaching
// below the minimum feasible count, those prices are infeasible with no
// winners, exactly as the per-count check made them, and the chain
// still extends correctly from them.
func TestChainInfeasiblePrefixes(t *testing.T) {
	inst := tinyInstance()
	a := mustAuction(t, inst, WithPriceSet(inst.PriceGrid))
	if err := chainMismatch(a); err != nil {
		t.Fatal(err)
	}
	infeasible := 0
	for _, info := range a.Support() {
		if !info.Feasible {
			infeasible++
			if info.Winners != nil {
				t.Fatalf("price %v below the minimum feasible count has winners %v", info.Price, info.Winners)
			}
		}
	}
	if infeasible == 0 || infeasible == len(a.Support()) {
		t.Fatalf("want a mix of infeasible and feasible prices, got %d of %d infeasible", infeasible, len(a.Support()))
	}
	if _, err := traceEveryCount(inst); err != nil {
		t.Fatal(err)
	}
}

// TestChainFeasibleButGreedyShort: three tasks each left 0.9e-9 short
// pass the per-task feasibility tolerance, but the greedy's summed
// residual (2.7e-9) stays above residualTol, so the count is reported
// infeasible with its selections — and a weak fourth worker then
// extends the exhausted trajectory through its terminal step.
func TestChainFeasibleButGreedyShort(t *testing.T) {
	const delta = 0.8
	short := 2*math.Log(1/delta) - 0.9e-9
	theta := (1 + math.Sqrt(short)) / 2
	inst := Instance{
		NumTasks:   3,
		Thresholds: []float64{delta, delta, delta},
		Epsilon:    0.5,
		CMin:       5,
		CMax:       25,
		PriceGrid:  []float64{10, 11, 12, 13},
	}
	for j := 0; j < 3; j++ {
		row := []float64{0.5, 0.5, 0.5}
		row[j] = theta
		inst.Workers = append(inst.Workers, Worker{ID: fmt.Sprint(j), Bundle: []int{j}, Bid: 10 + float64(j)})
		inst.Skills = append(inst.Skills, row)
	}
	inst.Workers = append(inst.Workers, Worker{ID: "weak", Bundle: []int{0, 1, 2}, Bid: 13})
	inst.Skills = append(inst.Skills, []float64{0.50005, 0.50005, 0.50005})

	trace, err := traceEveryCount(inst)
	if err != nil {
		t.Fatal(err)
	}
	if st := trace[3]; len(st.winners) != 3 {
		t.Fatalf("count 3: winners %v, want all three specialists", st.winners)
	}
	if st := trace[4]; !st.changed || st.diverge != 3 {
		t.Fatalf("count 4: changed=%v diverge=%d, want the weak worker appended at step 3", st.changed, st.diverge)
	}
	a := mustAuction(t, inst, WithPriceSet(inst.PriceGrid))
	if err := chainMismatch(a); err != nil {
		t.Fatal(err)
	}
	sup := a.Support()
	if !scratchFeasible(&a.bs.cp, a.bs.sorted[:3]) {
		t.Fatal("construction broken: count 3 should pass the per-task feasibility check")
	}
	if sup[2].Feasible || len(sup[2].Winners) != 3 {
		t.Fatalf("price 12: %+v, want infeasible with the three specialists", sup[2])
	}
	if !sup[3].Feasible || len(sup[3].Winners) != 4 {
		t.Fatalf("price 13: %+v, want feasible with all four workers", sup[3])
	}
}
