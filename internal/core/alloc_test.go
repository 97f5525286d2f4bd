package core

import (
	"math/rand"
	"testing"
)

// allocInstance is a fixed mid-size feasible instance for allocation
// ceilings: large enough that per-worker or per-count allocations would
// blow past the ceilings immediately, small enough to keep the test
// fast.
func allocInstance() Instance {
	r := rand.New(rand.NewSource(412))
	for {
		inst := feasibleRandomInstance(r)
		if _, err := New(inst); err == nil {
			return inst
		}
	}
}

// TestAuctionNewAllocCeiling is the regression gate for the hot-path
// rewrite: New must stay within a small constant allocation budget
// (scratch buffers, flattened instance copy, mechanism) instead of the
// ~2800 allocs/op the per-candidate-count allocations used to cost.
// The ISSUE-9 acceptance ceiling is 300; the structural budget is ~40.
func TestAuctionNewAllocCeiling(t *testing.T) {
	inst := allocInstance()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := New(inst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300 {
		t.Fatalf("New allocates %.0f/op, ceiling 300", allocs)
	}
}

// TestAuctionRebuildAllocCeiling: a warm Rebuild reuses every build
// buffer, so only the mechanism's weight copies remain.
func TestAuctionRebuildAllocCeiling(t *testing.T) {
	inst := allocInstance()
	a := mustAuction(t, inst)
	if err := a.Rebuild(inst); err != nil { // warm every buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.Rebuild(inst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("Rebuild allocates %.0f/op, ceiling 16", allocs)
	}
}

// TestGreedyCoverWarmScratchAllocFree: with warm buffers the greedy
// cover kernel — the minimum-feasible-count pass and the chain walked
// over every candidate count, the single hottest routine in the repo —
// must not allocate at all.
func TestGreedyCoverWarmScratchAllocFree(t *testing.T) {
	inst := allocInstance()
	var cp coverProblem
	cp.reset(&inst)
	sorted := make([]int, len(inst.Workers))
	for i := range sorted {
		sorted[i] = i
	}
	var s coverScratch
	var c coverChain
	walk := func() {
		c.reset(&cp, len(sorted))
		for count := cp.minFeasibleCount(&s, sorted); count <= len(sorted); count++ {
			cp.extend(&c, sorted, count)
		}
	}
	walk() // warm every buffer
	if !c.covered() {
		t.Fatal("alloc instance not coverable")
	}
	if allocs := testing.AllocsPerRun(50, walk); allocs != 0 {
		t.Fatalf("warm chain allocates %.1f/op, want 0", allocs)
	}
}
