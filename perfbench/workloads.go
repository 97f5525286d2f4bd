package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dphsrc/dphsrc"
	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/workload"
)

// params sizes one workload. Generator draws the offline instances or
// the round workloads' worker pool, of which Bidders bid in each round.
// Every run completes at least FixedRounds
// measured rounds, so the count-valued metrics that average over them
// (payment_per_round, core.gain_evals, core.support, crowd.em_iters)
// repeat exactly for a seed whatever the machine's speed.
type params struct {
	Generator    workload.Params `json:"generator"`
	Bidders      int             `json:"bidders"`
	Shards       int             `json:"shards"`
	Durable      bool            `json:"durable"`
	Setups       int             `json:"setups"`
	WarmupRounds int             `json:"warmup_rounds"`
	FixedRounds  int             `json:"fixed_rounds"`
}

// workloadDef is one registered workload: its sizes and its pass.
type workloadDef struct {
	params func(tiny bool) params
	pass   func(o options, p params, tr *tracer, seconds float64) (*pass, error)
}

var workloads = map[string]workloadDef{
	// Offline clearing of fresh Setting III instances (K=200, N=1000,
	// bundles 50-150): the paper's large-scale point of Figs. 3 and 4.
	// The cover kernel does nearly all the work; transport, shards and
	// the store are bypassed.
	"offline-clear": {
		params: func(tiny bool) params {
			p := params{Generator: workload.SettingIII(1000), Setups: 3, FixedRounds: 16}
			if tiny {
				p.Generator = workload.SettingIII(120)
				p.Generator.K, p.Generator.BundleMin, p.Generator.BundleMax = 20, 5, 15
				p.Setups, p.FixedRounds = 2, 2
			}
			p.Bidders = p.Generator.N
			return p
		},
		pass: offlinePass,
	},
	// Unsharded campaign over Setting I bidders (K=30, N=100 per round
	// from a pool of 1000) with a learning skill store, a metered
	// accountant and an fsync'd file-backed state directory: the
	// write-heavy round path, on which the cover kernel is a small share.
	"campaign-durable": {
		params: func(tiny bool) params {
			p := params{Generator: workload.SettingI(1000), Bidders: 100, Durable: true, Setups: 7, WarmupRounds: 3, FixedRounds: 200}
			if tiny {
				p.Generator = workload.SettingI(100)
				p.Bidders, p.Setups, p.WarmupRounds, p.FixedRounds = 50, 2, 1, 3
			}
			return p
		},
		pass: roundsPass,
	},
	// Four-shard in-memory platform with N=2000 Setting I bidders per
	// round (from a pool of 8000), fixed skills and no learning: shard
	// routing and queues, concurrent partition builds and bulk ingest.
	"sharded-burst": {
		params: func(tiny bool) params {
			p := params{Generator: workload.SettingI(8000), Bidders: 2000, Shards: 4, Setups: 3, WarmupRounds: 1, FixedRounds: 24}
			if tiny {
				p.Generator = workload.SettingI(800)
				p.Bidders, p.Setups, p.FixedRounds = 400, 2, 2
			}
			return p
		},
		pass: roundsPass,
	},
}

// pass holds the raw measurements of one pass over a workload.
type pass struct {
	setups   []float64 // seconds per set-up
	generate []float64 // seconds per generated instance
	walls    []float64 // seconds per measured round
	// workerP50 and workerP99 are each measured round's p50 and p99
	// per-bidder settlement time (offline: every bidder of an auction
	// waits for the whole clear, so both are the clear time); latencies
	// counts the bidder samples behind them.
	workerP50  []float64
	workerP99  []float64
	latencies  int
	payments   []float64 // total payment per measured round
	gainEvals  []float64 // per measured round, summed over partitions
	support    []float64 // support size per built auction, averaged per round
	emIters    []float64 // per measured round
	skew       []float64 // per measured round
	buildMax   []float64 // slowest partition build per measured round
	bids       int       // bids settled in measured rounds
	ops        int       // allocation denominator: bids, or auctions offline
	mallocs    uint64    // heap allocations during measured rounds
	attempted  int
	failed     int
	accepts    int64 // traced: connections accepted in measured rounds
	bytes      int64 // traced: bytes the platform moved in measured rounds
	rejected   int64 // traced: shard backpressure rejections and kills
	violations []string
	tr         *tracer
}

// report is a finished run: the metrics of one set plus the counts the
// result line carries.
type report struct {
	metrics    map[string]float64
	attempted  int
	failed     int
	violations []string
	samples    map[string]int
}

func (w workloadDef) run(o options, p params) (*report, error) {
	if !o.trace {
		ps, err := w.pass(o, p, nil, o.seconds)
		if err != nil {
			return nil, err
		}
		return endToEndReport(ps, p), nil
	}
	// The traced run: an untraced pass gives the overhead baseline, then
	// a traced pass gives the per-layer numbers.
	base, err := w.pass(o, p, nil, o.seconds/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := w.pass(o, p, tr, o.seconds/2)
	if err != nil {
		return nil, err
	}
	if err := tr.writeFile(o.traceOut, o.workload, o.seed); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return perLayerReport(traced, base, p), nil
}

// endToEndReport derives the user-visible metrics of an untraced pass.
func endToEndReport(ps *pass, p params) *report {
	wall := sum(ps.walls)
	m := map[string]float64{
		"setup_s":           median(ps.setups),
		"round_p50_s":       quantile(ps.walls, 0.5),
		"worker_p50_s":      median(ps.workerP50),
		"worker_p99_s":      median(ps.workerP99),
		"bids_per_s":        float64(ps.bids) / wall,
		"auctions_per_s":    float64(len(ps.walls)) / wall,
		"payment_per_round": mean(prefix(ps.payments, p.FixedRounds)),
		"success_ratio":     1 - float64(ps.failed)/float64(ps.attempted),
		"allocs_per_op":     float64(ps.mallocs) / float64(ps.ops),
		"peak_rss_mb":       peakRSSMB(),
	}
	return &report{metrics: m, attempted: ps.attempted, failed: ps.failed, violations: ps.violations, samples: samples(ps)}
}

// attributed are the stages whose per-round means, with
// round.unattributed_s, add up to the mean round wall time. Stages a
// workload bypasses contribute 0.
var attributed = []string{
	"protocol.collect", "core.build", "mechanism.spend", "store.append",
	"core.draw", "protocol.labels", "crowd.aggregate", "crowd.em",
}

// perLayerReport derives the per-layer metrics of a traced pass; base is
// the untraced pass the tracing overhead is measured against.
func perLayerReport(ps, base *pass, p params) *report {
	tr := ps.tr
	rounds := len(ps.walls)
	m := map[string]float64{
		"core.gain_evals":          mean(prefix(ps.gainEvals, p.FixedRounds)),
		"core.support":             mean(prefix(ps.support, p.FixedRounds)),
		"protocol.accepts_per_bid": ratio(float64(ps.accepts), float64(ps.bids)),
		"protocol.bytes_per_bid":   ratio(float64(ps.bytes), float64(ps.bids)),
		"store.records_per_round":  ratio(float64(tr.count("store.append", rounds)), float64(rounds)),
		"crowd.em_iters":           mean(prefix(ps.emIters, p.FixedRounds)),
		"shard.skew":               mean(ps.skew),
		"shard.build_max_s":        mean(ps.buildMax),
		"shard.rejected":           float64(ps.rejected),
		"workload.generate_s":      mean(ps.generate),
		"trace.overhead_ratio":     quantile(ps.walls, 0.5) / quantile(base.walls, 0.5),
	}
	stage := func(metric, span string) { m[metric] = tr.perRound(span, rounds) }
	stage("core.build_s", "core.build")
	stage("core.draw_s", "core.draw")
	stage("protocol.collect_s", "protocol.collect")
	stage("protocol.labels_s", "protocol.labels")
	stage("store.append_s", "store.append")
	stage("mechanism.spend_s", "mechanism.spend")
	stage("crowd.aggregate_s", "crowd.aggregate")
	stage("crowd.em_s", "crowd.em")
	rest := tr.perRound("round", rounds)
	for _, name := range attributed {
		rest -= tr.perRound(name, rounds)
	}
	m["round.unattributed_s"] = rest
	attempted, failed := ps.attempted+base.attempted, ps.failed+base.failed
	return &report{
		metrics:    m,
		attempted:  attempted,
		failed:     failed,
		violations: append(base.violations, ps.violations...),
		samples:    samples(ps),
	}
}

func samples(ps *pass) map[string]int {
	return map[string]int{
		"rounds":         len(ps.walls),
		"worker_latency": ps.latencies,
		"bids":           ps.bids,
	}
}

// offlinePass clears fresh seeded instances with dphsrc.New (default
// options) and Auction.Run, one at a time, for the given seconds. A
// round is one auction; each of its bidders waits for the whole clear.
func offlinePass(o options, p params, tr *tracer, seconds float64) (*pass, error) {
	ps := &pass{tr: tr}
	for s := 0; s < p.Setups; s++ {
		t0 := time.Now()
		inst, err := p.Generator.Generate(newRand(instanceSeed(o.seed, -1-s)))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		a, err := dphsrc.New(inst)
		if err != nil {
			return nil, fmt.Errorf("warm-up auction: %w", err)
		}
		a.Run(newRand(o.seed))
		ps.setups = append(ps.setups, time.Since(t0).Seconds())
		ps.generate = append(ps.generate, t1.Sub(t0).Seconds())
	}
	start := time.Now()
	for i := 0; i < p.FixedRounds || time.Since(start).Seconds() < seconds; i++ {
		inst, err := p.Generator.Generate(newRand(instanceSeed(o.seed, i)))
		if err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		a, err := dphsrc.New(inst)
		t1 := time.Now()
		var out core.Outcome
		if err == nil {
			out = a.Run(newRand(dphsrc.RoundSeed(o.seed, i)))
		}
		t2 := time.Now()
		runtime.ReadMemStats(&after)
		ps.attempted++
		if err != nil {
			ps.failed++
			ps.violations = append(ps.violations, fmt.Sprintf("auction %d: %v", i, err))
			continue
		}
		rid := tr.add("round", 0, i, t0, t2)
		tr.add("core.build", rid, i, t0, t1)
		tr.add("core.draw", rid, i, t1, t2)
		ps.walls = append(ps.walls, t2.Sub(t0).Seconds())
		ps.workerP50 = append(ps.workerP50, t2.Sub(t0).Seconds())
		ps.workerP99 = append(ps.workerP99, t2.Sub(t0).Seconds())
		ps.latencies += len(inst.Workers)
		ps.mallocs += after.Mallocs - before.Mallocs
		ps.ops++
		ps.bids += len(inst.Workers)
		ps.payments = append(ps.payments, out.TotalPayment)
		ps.gainEvals = append(ps.gainEvals, float64(a.GainEvaluations()))
		ps.support = append(ps.support, float64(len(a.Support())))
		// Untimed checks. The live call is the re-derivation itself, so
		// repeating it (a second full build) is done for the first
		// auction only, as a determinism check.
		want := out
		if i == 0 {
			if want, err = rederive(inst, dphsrc.RoundSeed(o.seed, i)); err != nil {
				ps.violations = append(ps.violations, fmt.Sprintf("auction %d: re-derive: %v", i, err))
				continue
			}
		}
		if err := checkUnsharded(inst, out, want); err != nil {
			ps.violations = append(ps.violations, fmt.Sprintf("auction %d: %v", i, err))
		}
	}
	return ps, nil
}

// instanceSeed derives the generator seed of instance i (negative i are
// set-up instances) from the run seed.
func instanceSeed(seed int64, i int) int64 {
	return int64(mix(uint64(seed), uint64(int64(i)), 0x1f))
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mix hashes its arguments with the splitmix64 finalizer.
func mix(xs ...uint64) uint64 {
	z := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		z ^= x
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the midpoint median, so an even count of set-ups averages
// the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func prefix(xs []float64, n int) []float64 {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status, falling back to the Go runtime's obtained memory
// where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
