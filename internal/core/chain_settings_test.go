package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/workload"
)

// TestChainMatchesScratchSettings runs the chain differential check on
// the paper's Table I settings (scaled down where the from-scratch
// oracle would be slow), over several seeds, with the default support
// and with the grid fixed as an explicit price set.
func TestChainMatchesScratchSettings(t *testing.T) {
	settings := map[string]workload.Params{
		"I":   workload.SettingI(160),
		"II":  workload.SettingII(40),
		"III": workload.SettingIII(1000).Scaled(0.2),
		"IV":  workload.SettingIV(200).Scaled(0.2),
	}
	for _, name := range []string{"I", "II", "III", "IV"} {
		p := settings[name]
		t.Run(name, func(t *testing.T) {
			built := 0
			for seed := int64(1); seed <= 6; seed++ {
				inst, err := p.Generate(rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				for _, opts := range [][]core.Option{nil, {core.WithPriceSet(inst.PriceGrid)}} {
					a, err := core.New(inst, opts...)
					if errors.Is(err, core.ErrInfeasible) {
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					built++
					if err := core.ChainMismatch(a); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			}
			if built == 0 {
				t.Fatal("no feasible build")
			}
		})
	}
}
