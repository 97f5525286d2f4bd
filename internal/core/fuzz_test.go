package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// FuzzValidate drives instance validation with adversarial numeric
// inputs: it must classify, never panic, and never accept an instance
// that then breaks New.
func FuzzValidate(f *testing.F) {
	f.Add(int16(3), int16(2), 0.5, 10.0, 60.0, 0.3, 0.9)
	f.Add(int16(0), int16(0), 0.0, -1.0, -2.0, 0.0, 2.0)
	f.Add(int16(1), int16(1), math.Inf(1), 0.0, 0.0, 1.0, 0.5)
	f.Add(int16(5), int16(3), 0.1, 10.0, 10.0, 0.999, 0.0)
	f.Fuzz(func(t *testing.T, nRaw, kRaw int16, eps, cmin, cmax, delta, theta float64) {
		// Go's % keeps the dividend's sign; fold negatives into range
		// so the slice sizes below stay valid.
		n := (int(nRaw)%8 + 8) % 8
		k := (int(kRaw)%6 + 6) % 6
		inst := Instance{
			NumTasks: k,
			Epsilon:  eps,
			CMin:     cmin,
			CMax:     cmax,
		}
		for j := 0; j < k; j++ {
			inst.Thresholds = append(inst.Thresholds, delta)
		}
		for i := 0; i < n; i++ {
			bundle := []int{i % maxInt(k, 1)}
			row := make([]float64, k)
			for j := range row {
				row[j] = theta
			}
			inst.Workers = append(inst.Workers, Worker{Bundle: bundle, Bid: cmin})
			inst.Skills = append(inst.Skills, row)
		}
		inst.PriceGrid = []float64{1, 2, 3}
		if cmax > cmin && cmax < math.Inf(1) {
			inst.PriceGrid = []float64{cmax}
		}

		err := inst.Validate()
		if err != nil {
			return
		}
		// Anything validation accepts must be safe to run end to end.
		a, err := New(inst)
		if err != nil && !errors.Is(err, ErrInfeasible) {
			// New may legitimately find the instance infeasible, but
			// must not fail any other way after Validate passed.
			t.Fatalf("validated instance broke New: %v", err)
		}
		if err == nil {
			if err := chainMismatch(a); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzChainMatchesScratch drives the greedy chain with random instances
// whose bids, bundles and skills are drawn from few distinct values, so
// ties and near-ties are the norm: at every candidate count the chained
// winner set must equal the from-scratch greedy, under the default
// support and a fixed price set alike.
func FuzzChainMatchesScratch(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(2))
	f.Add(int64(7), uint8(40), uint8(6), uint8(1))
	f.Add(int64(42), uint8(25), uint8(1), uint8(5))
	f.Add(int64(-3), uint8(3), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, levelsRaw uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%48
		k := 1 + int(kRaw)%8
		levels := 1 + int(levelsRaw)%6
		level := func(lo, hi float64) float64 {
			return lo + (hi-lo)*float64(r.Intn(levels))/float64(levels)
		}
		inst := Instance{
			NumTasks:  k,
			Epsilon:   0.5,
			CMin:      10,
			CMax:      60,
			PriceGrid: PriceGridRange(10, 60, 2.5),
		}
		for j := 0; j < k; j++ {
			inst.Thresholds = append(inst.Thresholds, level(0.2, 0.45))
		}
		for i := 0; i < n; i++ {
			var bundle []int
			for j := 0; j < k; j++ {
				if r.Intn(2) == 0 {
					bundle = append(bundle, j)
				}
			}
			if len(bundle) == 0 {
				bundle = []int{r.Intn(k)}
			}
			row := make([]float64, k)
			for j := range row {
				row[j] = level(0.5, 1)
			}
			inst.Workers = append(inst.Workers, Worker{Bundle: bundle, Bid: level(10, 60)})
			inst.Skills = append(inst.Skills, row)
		}
		if _, err := checkBuilds(inst); err != nil {
			t.Fatal(err)
		}
		if _, err := traceEveryCount(inst); err != nil {
			t.Fatal(err)
		}
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
