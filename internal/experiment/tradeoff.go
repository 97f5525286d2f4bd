package experiment

import (
	"fmt"
	"math/rand"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/plot"
	"github.com/dphsrc/dphsrc/internal/stats"
	"github.com/dphsrc/dphsrc/internal/workload"
)

// Figure5Epsilons are the privacy budgets swept in the paper's Figure 5.
var Figure5Epsilons = []float64{0.25, 0.5, 1, 2, 5, 10, 20, 45, 100, 140, 200, 300, 500, 700, 1000}

// Figure5Result carries the two curves of Figure 5 on their shared
// epsilon axis.
type Figure5Result struct {
	Epsilons []float64
	// Payment[i] is the platform's average total payment at Epsilons[i].
	Payment []float64
	// Leakage[i] is the worst-case KL-divergence privacy leakage
	// (Definition 8) over sampled adversarial single-bid perturbations
	// at Epsilons[i].
	Leakage []float64
	Notes   []string
}

// Figure5 reproduces Figure 5: the trade-off between the platform's
// expected total payment and the privacy leakage as the privacy budget
// epsilon grows. For each epsilon, one Setting-IV-family instance is
// built; the payment is the exact expected payment, and the leakage is
// the worst-case KL divergence over adversarial single-bid
// perturbations with the price support held fixed (Definition 8).
func Figure5(cfg Config) (Figure5Result, error) {
	cfg = cfg.withDefaults()
	seeder := stats.NewSeeder(cfg.Seed)
	r := seeder.NewRand()

	// One base instance reused across the epsilon sweep so the curves
	// vary only with epsilon, as in the paper.
	// The probe auction is discarded (the sweep builds its own below
	// with the fixed support), so it stays uninstrumented.
	params := workload.SettingIV(200).Scaled(cfg.Scale)
	inst, _, _, err := generateFeasible(params, r, buildOptions{})
	if err != nil {
		return Figure5Result{}, err
	}
	support := feasibleSupport(inst)
	if len(support) == 0 {
		return Figure5Result{}, ErrNoFeasibleInstance
	}

	// Leakage is a worst-case notion (Definition 8 compares two specific
	// adjacent profiles; DP bounds the worst pair), so the perturbations
	// are adversarial: a sampled worker's bid jumps to the opposite cost
	// extreme, maximally shifting her candidate-set membership, and the
	// reported leakage is the maximum over the sample. The perturbed
	// workers are fixed across the epsilon sweep so the curves vary only
	// with epsilon.
	const perturbations = 12
	perturbed := make([]core.Instance, perturbations)
	for p := range perturbed {
		perturbed[p] = perturbExtremeBid(inst, r)
	}

	// Winner sets depend on the bids and the fixed support but never on
	// epsilon, so each of the 1+perturbations auctions is constructed
	// exactly once and every sweep point derives from it by Reweight
	// (mechanism log-weights only). The gain-evaluation telemetry stays
	// flat across the sweep; only mcs_core_reweights_total advances.
	build := func(base core.Instance) (*core.Auction, error) {
		cur := base.Clone()
		cur.Epsilon = Figure5Epsilons[0]
		return core.New(cur, core.WithPriceSet(support),
			core.WithTelemetry(cfg.Telemetry),
			core.WithEventLog(cfg.Events))
	}
	baseA, err := build(inst)
	if err != nil {
		return Figure5Result{}, fmt.Errorf("experiment fig5 base build: %w", err)
	}
	perturbedA := make([]*core.Auction, perturbations)
	for p := range perturbed {
		if perturbedA[p], err = build(perturbed[p]); err != nil {
			return Figure5Result{}, fmt.Errorf("experiment fig5 perturbation: %w", err)
		}
	}

	res := Figure5Result{
		Epsilons: Figure5Epsilons,
		Payment:  make([]float64, len(Figure5Epsilons)),
		Leakage:  make([]float64, len(Figure5Epsilons)),
	}
	errs := make([]error, len(Figure5Epsilons))
	pt := startProgress(cfg.Events, "fig5", len(Figure5Epsilons))
	runIndexed(len(Figure5Epsilons), cfg.Parallelism, func(i int) {
		eps := Figure5Epsilons[i]
		a, err := baseA.Reweight(eps)
		if err != nil {
			errs[i] = fmt.Errorf("experiment fig5 at eps=%v: %w", eps, err)
			return
		}
		res.Payment[i] = a.ExpectedPayment()

		worst := 0.0
		for p := range perturbedA {
			b, err := perturbedA[p].Reweight(eps)
			if err != nil {
				errs[i] = fmt.Errorf("experiment fig5 perturbation at eps=%v: %w", eps, err)
				return
			}
			leak, err := mechanism.MeasureLeakage(a.Mechanism(), b.Mechanism())
			if err != nil {
				errs[i] = err
				return
			}
			if leak.KL > worst {
				worst = leak.KL
			}
		}
		res.Leakage[i] = worst
		pt.jobDone()
	})
	pt.done()
	for _, err := range errs {
		if err != nil {
			return Figure5Result{}, err
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("leakage is the worst case over %d adversarial single-bid perturbations (bid moved to the opposite cost extreme)", perturbations),
		"price support held fixed across adjacent profiles (Algorithm 1 takes P as input)",
		"winner sets constructed once per profile and shared across the epsilon sweep (Auction.Reweight)")
	if cfg.Scale != 1 {
		res.Notes = append(res.Notes, fmt.Sprintf("instance sizes scaled by %.3g relative to Table I Setting IV", cfg.Scale))
	}
	return res, nil
}

// Charts renders Figure 5 as its two overlaid curves (payment and
// leakage), each returned as its own chart since the units differ.
func (f Figure5Result) Charts() (payment, leakage plot.Chart) {
	payment = plot.Chart{
		Title:  "Platform's average total payment vs privacy budget",
		XLabel: "epsilon",
		YLabel: "Platform's Average Total Payment",
		LogX:   true,
		Series: []plot.Series{{Name: "Platform's Average Total Payment", X: f.Epsilons, Y: f.Payment}},
	}
	leakage = plot.Chart{
		Title:  "Privacy leakage vs privacy budget",
		XLabel: "epsilon",
		YLabel: "Privacy Leakage (KL divergence)",
		LogX:   true,
		Series: []plot.Series{{Name: "Privacy Leakage", X: f.Epsilons, Y: f.Leakage}},
	}
	return payment, leakage
}

// Series returns both curves in tidy form for CSV export.
func (f Figure5Result) Series() []plot.Series {
	return []plot.Series{
		{Name: "Platform's Average Total Payment", X: f.Epsilons, Y: f.Payment},
		{Name: "Privacy Leakage", X: f.Epsilons, Y: f.Leakage},
	}
}

// feasibleSupport computes the paper's price set P for an instance: the
// feasible subset of its grid. Fixing this as the support for all
// adjacent profiles matches Algorithm 1's treatment of P as an input.
func feasibleSupport(inst core.Instance) []float64 {
	a, err := core.New(inst)
	if err != nil {
		return nil
	}
	return a.SupportPrices()
}

// perturbExtremeBid returns a copy of inst with one uniformly chosen
// worker's bid moved to whichever cost extreme is farther from her
// current bid — the single-bid change with the largest effect on her
// candidate-set membership across prices.
func perturbExtremeBid(inst core.Instance, r *rand.Rand) core.Instance {
	cp := inst.Clone()
	i := r.Intn(len(cp.Workers))
	mid := (inst.CMin + inst.CMax) / 2
	if cp.Workers[i].Bid >= mid {
		cp.Workers[i].Bid = inst.CMin
	} else {
		cp.Workers[i].Bid = inst.CMax
	}
	return cp
}
