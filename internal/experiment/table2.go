package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/dphsrc/dphsrc/internal/ilp"
	"github.com/dphsrc/dphsrc/internal/plot"
	"github.com/dphsrc/dphsrc/internal/stats"
	"github.com/dphsrc/dphsrc/internal/workload"
)

// Table2Row is one column of the paper's Table II: execution time of
// the DP-hSRC auction and the exact optimal algorithm at one sweep
// point.
type Table2Row struct {
	// Label names the sweep variable value ("N=80" or "K=20").
	Label string
	// DPSeconds is the wall-clock time to run the full DP-hSRC auction
	// (winner sets for every support price plus the price draw).
	DPSeconds float64
	// OptSeconds is the wall-clock time of the exact R_OPT computation.
	OptSeconds float64
	// OptProven is false when the solve budget expired first, in which
	// case OptSeconds is the budgeted time and the optimum is an
	// incumbent (reported as ">= budget" in rendering).
	OptProven bool
}

// Table2Result reproduces Table II: execution times for Setting I
// (varying N) and Setting II (varying K).
type Table2Result struct {
	SettingI  []Table2Row
	SettingII []Table2Row
	Notes     []string
}

// Table2 measures execution times across the paper's Table II sweep
// points: N in {80, 88, ..., 136} under Setting I and K in
// {20, 24, ..., 48} under Setting II. Points run on a bounded pool of
// cfg.Parallelism workers with seeds pre-derived in the sequential
// point order, so the instances measured (and thus the table structure)
// are identical to a sequential run; only the wall-clock timings —
// nondeterministic by nature — feel the co-scheduling.
func Table2(cfg Config) (Table2Result, error) {
	cfg = cfg.withDefaults()
	seeder := stats.NewSeeder(cfg.Seed)
	type point struct {
		label string
		p     workload.Params
		seed  int64
	}
	var pts []point
	for _, n := range rangeInts(80, 136, 8) {
		pts = append(pts, point{fmt.Sprintf("N=%d", n), workload.SettingI(n).Scaled(cfg.Scale), seeder.Next()})
	}
	numSettingI := len(pts)
	for _, k := range rangeInts(20, 48, 4) {
		pts = append(pts, point{fmt.Sprintf("K=%d", k), workload.SettingII(k).Scaled(cfg.Scale), seeder.Next()})
	}
	rows := make([]Table2Row, len(pts))
	errs := make([]error, len(pts))
	pt := startProgress(cfg.Events, "table2", len(pts))
	runIndexed(len(pts), cfg.Parallelism, func(i int) {
		rows[i], errs[i] = table2Point(pts[i].label, pts[i].p, cfg, pts[i].seed)
		pt.jobDone()
	})
	pt.done()
	for _, err := range errs {
		if err != nil {
			return Table2Result{}, err
		}
	}
	res := Table2Result{SettingI: rows[:numSettingI], SettingII: rows[numSettingI:]}
	if cfg.Scale != 1 {
		res.Notes = append(res.Notes, fmt.Sprintf("instance sizes scaled by %.3g relative to Table I", cfg.Scale))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("exact solves budgeted at %v each; unproven entries are lower bounds on the true optimal runtime", cfg.OptimalBudget),
		"sweep points may execute concurrently (Config.Parallelism); timings are per-point wall clock",
		"paper baseline used GUROBI; this repo uses its own LP-relaxation branch-and-bound (see DESIGN.md)")
	return res, nil
}

// table2Point measures one sweep point; a pure function of
// (params, cfg, seed) so points can run concurrently.
func table2Point(label string, p workload.Params, cfg Config, seed int64) (Table2Row, error) {
	r := rand.New(rand.NewSource(seed))
	// The probe build is the timed one; add the price-draw time for the
	// full DP-hSRC execution time.
	inst, a, buildTime, err := generateFeasible(p, r, buildOptions{})
	if err != nil {
		return Table2Row{}, err
	}
	start := time.Now()
	a.Run(r)
	dpElapsed := buildTime + time.Since(start)

	opt, err := ilp.Optimal(inst, ilp.Options{TimeBudget: cfg.OptimalBudget, TotalBudget: 4 * cfg.OptimalBudget})
	if err != nil {
		return Table2Row{}, err
	}
	return Table2Row{
		Label:      label,
		DPSeconds:  dpElapsed.Seconds(),
		OptSeconds: opt.Elapsed.Seconds(),
		OptProven:  opt.Proven,
	}, nil
}

// Render converts the result into two text tables matching the paper's
// layout (one block per setting).
func (t Table2Result) Render() (settingI, settingII plot.Table) {
	mk := func(rows []Table2Row, varName string) plot.Table {
		tbl := plot.Table{Headers: []string{varName, "DP-hSRC (s)", "Optimal (s)"}}
		for _, row := range rows {
			opt := fmt.Sprintf("%.3f", row.OptSeconds)
			if !row.OptProven {
				opt = ">= " + opt + " (budget)"
			}
			tbl.Rows = append(tbl.Rows, []string{
				row.Label,
				fmt.Sprintf("%.3f", row.DPSeconds),
				opt,
			})
		}
		return tbl
	}
	return mk(t.SettingI, "N"), mk(t.SettingII, "K")
}
