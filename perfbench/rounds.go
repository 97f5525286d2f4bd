package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/shard"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
)

const (
	// maxRounds is the campaign length handed to RunCampaign; a pass
	// stops it long before, by cancelling its context.
	maxRounds = 1 << 20
	// priorAccuracy is the learning skill store's accuracy for workers
	// it has not yet seen report: the middle of the labelling band.
	priorAccuracy = 0.85
	// bidWindow bounds a round's bid window; the platform closes it
	// early, as soon as every bidder has bid.
	bidWindow = 10 * time.Second
)

// population is the seeded worker pool of a round workload. Each round,
// p.Bidders of its workers, drawn afresh from the round's seed, bid
// their bundles at their costs. Drawing from a pool larger than a round
// averages a run over many bidder mixes, so a run's figures depend less
// on the particular workers one seed generates.
type population struct {
	inst     core.Instance // bids and Setting skill rows, in generation order
	accuracy [][]float64   // probability each worker labels each task correctly
	index    map[string]int
	rank     []int // each worker's position in worker-ID order
	bidders  int
}

func newPopulation(p params, seed int64) (*population, error) {
	r := newRand(instanceSeed(seed, 0))
	inst, err := p.Generator.Generate(r)
	if err != nil {
		return nil, err
	}
	pop := &population{inst: inst, accuracy: inst.Skills, index: make(map[string]int, len(inst.Workers)), bidders: p.Bidders}
	if p.Durable {
		// The learning skill store keeps one accuracy per worker
		// (one-coin EM), so campaign workers label every task with one
		// accuracy drawn from [0.75, 0.95], the band the repository's
		// simulated workers use. Setting I's per-task θ in [0.1, 0.9]
		// averages to about 0.5 per worker: the one-coin estimate would
		// learn every worker as uninformative and no round would be
		// feasible.
		pop.accuracy = make([][]float64, len(inst.Workers))
		for i := range pop.accuracy {
			a := 0.75 + 0.2*r.Float64()
			row := make([]float64, inst.NumTasks)
			for j := range row {
				row[j] = a
			}
			pop.accuracy[i] = row
		}
	}
	order := make([]int, len(inst.Workers))
	for i, w := range inst.Workers {
		pop.index[w.ID] = i
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return inst.Workers[order[a]].ID < inst.Workers[order[b]].ID })
	pop.rank = make([]int, len(order))
	for r, i := range order {
		pop.rank[i] = r
	}
	return pop, nil
}

// draw picks platform round r's bidders and returns their pool indices
// in worker-ID order, the order the platform gives its bidders.
func (pop *population) draw(seed int64, round int) []int {
	perm := newRand(int64(mix(uint64(seed), uint64(round), 0xd7))).Perm(len(pop.inst.Workers))
	members := append([]int(nil), perm[:pop.bidders]...)
	sort.Slice(members, func(a, b int) bool { return pop.rank[members[a]] < pop.rank[members[b]] })
	return members
}

// instance assembles a round's auction instance the way the platform
// does: the round's bidders in worker-ID order, each with the skill row
// the platform looked up for it.
func (pop *population) instance(members []int, rows [][]float64) core.Instance {
	src := pop.inst
	inst := core.Instance{
		NumTasks:   src.NumTasks,
		Thresholds: src.Thresholds,
		Epsilon:    src.Epsilon,
		CMin:       src.CMin,
		CMax:       src.CMax,
		PriceGrid:  src.PriceGrid,
		Workers:    make([]core.Worker, len(members)),
		Skills:     make([][]float64, len(members)),
	}
	for k, i := range members {
		inst.Workers[k] = src.Workers[i]
		inst.Skills[k] = rows[k]
	}
	return inst
}

// label is pool worker i's sensed label for task j in platform round r: the
// round's true label with probability accuracy[i][j], else its flip.
func (pop *population) label(seed int64, round, i, j int) crowd.Label {
	truth := crowd.Positive
	if mix(uint64(seed), uint64(round), uint64(j))&1 == 0 {
		truth = crowd.Negative
	}
	if unit(mix(uint64(seed), uint64(round), uint64(j), uint64(i)+1)) < pop.accuracy[i][j] {
		return truth
	}
	return -truth
}

// roundEnv is one set-up of a round workload: a platform running a
// campaign over an in-memory listener, and the load loop that runs its
// rounds as a closed loop. Each round launches every bidder at once and
// ends when every bidder has settled; the next round starts after.
type roundEnv struct {
	o    options
	p    params
	tr   *tracer
	pop  *population
	seed int64 // the platform's base seed
	eps  float64

	ln     *pipeListener
	cl     *countingListener // traced only
	plat   *protocol.Platform
	ptr    *telemetry.Tracer // traced only: the platform's phase spans
	acct   *mechanism.Accountant
	skills *protocol.SkillStore // durable only
	fs     *store.FileStore     // durable only
	dir    string

	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{} // closed when RunCampaign has returned
	camp    protocol.CampaignReport
	campErr error

	next int // platform index of the next round

	mu      sync.Mutex
	cur     int
	members map[int][]int       // each platform round's bidders, pool indices in worker-ID order
	rows    map[int][][]float64 // skill rows the platform looked up, per platform round and bidder
	pos     []int               // each pool worker's bidder position in the current round
	results map[int][]settlement
	labels  map[int][][]crowd.Report // traced: labels sent, per platform round and bidder

	// The traced replay's reusable auctions (one per partition), rebuilt
	// in place each round as the platform's are, and its accountant.
	replays    []*core.Auction
	replayAcct *mechanism.Accountant
}

// settlement is one bidder's end of a round.
type settlement struct {
	rep protocol.WorkerReport
	err error
}

// newRoundEnv sets up a platform and starts its campaign. It returns
// the seconds spent generating the population.
func newRoundEnv(o options, p params, tr *tracer, setup int) (*roundEnv, float64, error) {
	t0 := time.Now()
	pop, err := newPopulation(p, o.seed)
	if err != nil {
		return nil, 0, err
	}
	gen := time.Since(t0).Seconds()
	e := &roundEnv{
		o: o, p: p, tr: tr, pop: pop,
		seed:    int64(mix(uint64(o.seed), 0x5eed) | 1), // never 0, which asks the platform for a clock seed
		eps:     pop.inst.Epsilon,
		ln:      newPipeListener(p.Bidders),
		members: map[int][]int{},
		rows:    map[int][][]float64{},
		pos:     make([]int, len(pop.inst.Workers)),
		results: map[int][]settlement{},
		labels:  map[int][][]crowd.Report{},
		done:    make(chan struct{}),
	}
	var ln net.Listener = e.ln
	if tr != nil {
		e.cl = &countingListener{pipeListener: e.ln}
		ln = e.cl
		e.ptr = telemetry.NewTracer()
		e.replays = make([]*core.Auction, p.Shards+1)
		if e.replayAcct, err = mechanism.NewAccountant(e.eps * maxRounds); err != nil {
			return nil, 0, err
		}
	}
	if e.acct, err = mechanism.NewAccountant(e.eps * maxRounds); err != nil {
		return nil, 0, err
	}
	cfg := protocol.PlatformConfig{
		NumTasks:   pop.inst.NumTasks,
		Thresholds: pop.inst.Thresholds,
		Epsilon:    e.eps,
		CMin:       pop.inst.CMin,
		CMax:       pop.inst.CMax,
		PriceGrid:  pop.inst.PriceGrid,
		BidWindow:  bidWindow,
		MinWorkers: p.Bidders,
		Seed:       e.seed,
		Accountant: e.acct,
		Tracer:     e.ptr,
		Shards:     p.Shards,
	}
	skills := protocol.SkillFunc(func(id string, _ int) []float64 { return pop.inst.Skills[pop.index[id]] })
	if p.Durable {
		if skills, err = e.openState(&cfg, setup); err != nil {
			e.discard()
			return nil, 0, err
		}
	}
	cfg.Skills = func(id string, k int) []float64 {
		row := skills(id, k)
		e.mu.Lock()
		e.rows[e.cur][e.pos[pop.index[id]]] = row
		e.mu.Unlock()
		return row
	}
	if e.plat, err = protocol.NewPlatform(cfg); err != nil {
		e.discard()
		return nil, 0, err
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	go func() {
		defer close(e.done)
		e.camp, e.campErr = e.plat.RunCampaign(e.ctx, ln, maxRounds, e.skills)
	}()
	return e, gen, nil
}

// openState opens a fresh fsync'd state directory and wires the
// accountant, a learning skill store and the campaign checkpoints to
// it, through the journal decorator when traced.
func (e *roundEnv) openState(cfg *protocol.PlatformConfig, setup int) (protocol.SkillFunc, error) {
	e.dir = filepath.Join(e.o.stateDir, fmt.Sprintf("%s-%d-%d-%d", e.o.workload, e.o.seed, os.Getpid(), setup))
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	fs, err := store.Open(e.dir)
	if err != nil {
		return nil, err
	}
	e.fs = fs
	var j interface {
		store.BudgetStore
		store.SkillStore
		store.CampaignStore
	} = fs
	if e.tr != nil {
		j = &journal{fs: fs, tr: e.tr}
	}
	if err := e.acct.ObserveStore(j); err != nil {
		return nil, err
	}
	e.skills = protocol.NewSkillStore(priorAccuracy)
	if err := e.skills.ObserveStore(j); err != nil {
		return nil, err
	}
	cfg.Checkpoints = j
	return e.skills.Func(), nil
}

// stop cancels the campaign and waits for it to return.
func (e *roundEnv) stop() {
	if e.cancel != nil {
		e.cancel()
		<-e.done
	}
	_ = e.ln.Close()
}

// discard tears down a set-up whose rounds are not measured.
func (e *roundEnv) discard() {
	e.stop()
	if e.fs != nil {
		_ = e.fs.Close()
	}
	_ = os.RemoveAll(e.dir) // "" for in-memory workloads, a no-op
}

// roundResult is the load loop's view of one round.
type roundResult struct {
	wall      float64
	latencies []float64 // settled bidders only
	settled   int
	span      int
}

// round runs one closed-loop round: every bidder dials at once, and the
// round ends when each has settled. idx is the measured round index,
// negative for warm-up rounds.
func (e *roundEnv) round(idx int) roundResult {
	pr := e.next
	e.next++
	members := e.pop.draw(e.o.seed, pr)
	n := len(members)
	e.members[pr] = members
	e.mu.Lock()
	e.cur = pr
	e.rows[pr] = make([][]float64, n)
	for k, i := range members {
		e.pos[i] = k
	}
	e.mu.Unlock()
	var labels [][]crowd.Report
	if e.tr != nil {
		labels = make([][]crowd.Report, n)
		e.labels[pr] = labels
	}
	out := make([]settlement, n)
	lat := make([]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	rid := e.tr.reserve("round", 0, idx)
	e.tr.setRound(idx, rid)
	for k, i := range members {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			w := e.pop.inst.Workers[i]
			cfg := protocol.WorkerConfig{
				ID:     w.ID,
				Bundle: w.Bundle,
				Cost:   w.Bid,
				Labels: e.labelFunc(pr, k, i, labels),
				Dialer: e.ln,
			}
			t0 := time.Now()
			out[k].rep, out[k].err = protocol.Participate(e.ctx, "pipe", cfg)
			lat[k] = time.Since(t0).Seconds()
		}(k, i)
	}
	settled := make(chan struct{})
	go func() {
		wg.Wait()
		close(settled)
	}()
	select {
	case <-settled:
	case <-e.done:
		// The campaign ended early: the bidders still waiting can never
		// settle.
		e.cancel()
		<-settled
	}
	end := time.Now()
	e.tr.finish(rid, end)
	e.results[pr] = out
	res := roundResult{wall: end.Sub(start).Seconds(), span: rid}
	for i, s := range out {
		if s.err == nil {
			res.settled++
			res.latencies = append(res.latencies, lat[i])
		}
	}
	return res
}

// labelFunc is pool worker i's sensor in platform round pr, where it is
// bidder k; traced runs capture what it sends for the replay.
func (e *roundEnv) labelFunc(pr, k, i int, capture [][]crowd.Report) protocol.LabelFunc {
	if capture == nil {
		return func(task int) crowd.Label { return e.pop.label(e.o.seed, pr, i, task) }
	}
	return func(task int) crowd.Label {
		l := e.pop.label(e.o.seed, pr, i, task)
		capture[k] = append(capture[k], crowd.Report{Task: task, Label: l})
		return l
	}
}

// roundsPass sets a round workload up p.Setups times (only the last
// set-up is measured), runs measured rounds for the given seconds, then
// checks every round and, when traced, replays each measured round's
// captured inputs through the layers' public functions.
func roundsPass(o options, p params, tr *tracer, seconds float64) (*pass, error) {
	ps := &pass{tr: tr}
	var e *roundEnv
	for s := 0; s < p.Setups; s++ {
		if e != nil {
			e.discard()
		}
		t0 := time.Now()
		var gen float64
		var err error
		if e, gen, err = newRoundEnv(o, p, tr, s); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ps.generate = append(ps.generate, gen)
		for w := 0; w < p.WarmupRounds; w++ {
			if r := e.round(w - p.WarmupRounds); r.settled != p.Bidders {
				e.discard()
				return nil, fmt.Errorf("warm-up round: %d of %d bidders settled", r.settled, p.Bidders)
			}
		}
		ps.setups = append(ps.setups, time.Since(t0).Seconds())
	}
	defer e.discard()

	var accepts, moved int64
	if e.cl != nil {
		accepts, moved = e.cl.accepts.Load(), e.cl.bytes.Load()
	}
	var spans []int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < p.FixedRounds || time.Since(start).Seconds() < seconds; i++ {
		r := e.round(i)
		n := p.Bidders
		ps.walls = append(ps.walls, r.wall)
		if len(r.latencies) > 0 {
			ps.workerP50 = append(ps.workerP50, quantile(r.latencies, 0.5))
			ps.workerP99 = append(ps.workerP99, quantile(r.latencies, 0.99))
			ps.latencies += len(r.latencies)
		}
		ps.bids += r.settled
		ps.attempted += n
		ps.failed += n - r.settled
		spans = append(spans, r.span)
		if r.settled < n {
			break
		}
	}
	runtime.ReadMemStats(&after)
	ps.mallocs = after.Mallocs - before.Mallocs
	ps.ops = ps.bids
	if e.cl != nil {
		ps.accepts, ps.bytes = e.cl.accepts.Load()-accepts, e.cl.bytes.Load()-moved
	}
	e.stop()
	e.check(ps, len(spans))
	if tr != nil {
		for i, rid := range spans {
			if err := e.replay(ps, i, p.WarmupRounds+i, rid); err != nil {
				ps.violations = append(ps.violations, fmt.Sprintf("replay of round %d: %v", i, err))
			}
		}
		if err := tr.importPlatform(e.ptr, p.WarmupRounds, spans); err != nil {
			ps.violations = append(ps.violations, err.Error())
		}
		for _, st := range e.plat.ShardStats() {
			ps.rejected += st.Overloads + st.Killed
		}
	}
	return ps, nil
}

// check verifies every round the campaign reported, the privacy ledger
// and, for the durable workload, the recovered state; it also collects
// the measured rounds' payments. Each measured round is one operation,
// failed when the campaign did not complete it.
func (e *roundEnv) check(ps *pass, measured int) {
	fail := func(format string, args ...any) {
		ps.violations = append(ps.violations, fmt.Sprintf(format, args...))
	}
	// RunCampaign returns the context's error only between rounds; any
	// other error comes from a round it began: the stop reaching a
	// round's bid window (no bids) or a failure.
	begun := 1
	switch err := e.campErr; {
	case errors.Is(err, context.Canceled):
		begun = 0
	case !errors.Is(err, protocol.ErrNoBids):
		fail("campaign stopped: %v", err)
	}
	completed := map[int]bool{}
	for _, rep := range e.camp.Rounds {
		completed[rep.Round] = true
		if err := e.checkRound(rep); err != nil {
			fail("round %d: %v", rep.Round, err)
		}
		if rep.Round >= e.p.WarmupRounds {
			ps.payments = append(ps.payments, rep.Outcome.TotalPayment)
		}
	}
	ps.attempted += measured
	for i := 0; i < measured; i++ {
		if !completed[e.p.WarmupRounds+i] {
			ps.failed++
		}
	}
	if err := checkLedger(e.acct.Spent(), len(e.camp.Rounds), e.eps); err != nil {
		fail("%v", err)
	}
	if e.fs != nil {
		err := e.fs.Close()
		e.fs = nil
		if err != nil {
			fail("closing state: %v", err)
		} else if err := checkRecovery(e.dir, e.acct, e.skills, len(e.camp.Rounds), len(e.camp.Rounds)+begun); err != nil {
			fail("%v", err)
		}
	}
}

// checkRound verifies one reported round against the instance rebuilt
// from its captured bids and skill rows, and against what each bidder
// was told and paid.
func (e *roundEnv) checkRound(rep protocol.RoundReport) error {
	inst := e.pop.instance(e.members[rep.Round], e.rows[rep.Round])
	if len(rep.WorkerIDs) != len(inst.Workers) {
		return fmt.Errorf("%d bidders, want %d", len(rep.WorkerIDs), len(inst.Workers))
	}
	for k, id := range rep.WorkerIDs {
		if inst.Workers[k].ID != id {
			return fmt.Errorf("bidder %d is %s, want %s", k, id, inst.Workers[k].ID)
		}
	}
	price := map[string]float64{} // winner -> price paid
	if e.p.Shards > 1 {
		if err := checkSharded(rep.Sharding, inst, e.p.Shards); err != nil {
			return err
		}
		for _, w := range rep.Sharding.Winners {
			price[w.WorkerID] = w.Price
		}
	} else {
		want, err := rederive(inst, protocol.RoundSeed(e.seed, rep.Round))
		if err != nil {
			return err
		}
		if err := checkUnsharded(inst, rep.Outcome, want); err != nil {
			return err
		}
		for _, k := range rep.Outcome.Winners {
			price[inst.Workers[k].ID] = rep.Outcome.Price
		}
	}
	for k, s := range e.results[rep.Round] {
		w := inst.Workers[k]
		id := w.ID
		if s.err != nil {
			return fmt.Errorf("bidder %s did not settle: %v", id, s.err)
		}
		if err := checkSettled(id, w.Bid, s.rep); err != nil {
			return err
		}
		p, won := price[id]
		if s.rep.Won != won || s.rep.ClearingPrice != p {
			return fmt.Errorf("%w: %s told won=%v price %v, platform says won=%v price %v",
				errSettlement, id, s.rep.Won, s.rep.ClearingPrice, won, p)
		}
	}
	return nil
}

// replay times one measured round's captured inputs through the
// layers' public functions: the auction build and draw (per partition
// when sharded, concurrently as the coordinator builds), the
// accountant debit, and the EM skill update over the labels the
// winners sent.
func (e *roundEnv) replay(ps *pass, idx, pr, parent int) error {
	tr := e.tr
	rp := tr.reserve("replay", parent, idx)
	defer func() { tr.finish(rp, time.Now()) }()
	inst := e.pop.instance(e.members[pr], e.rows[pr])
	var winners []int
	if e.p.Shards > 1 {
		if err := e.replaySharded(ps, idx, pr, rp, inst); err != nil {
			return err
		}
	} else {
		b0 := time.Now()
		a, err := e.rebuild(0, inst)
		b1 := time.Now()
		if err != nil {
			return err
		}
		out := a.Run(newRand(protocol.RoundSeed(e.seed, pr)))
		tr.add("core.build", rp, idx, b0, b1)
		tr.add("core.draw", rp, idx, b1, time.Now())
		ps.gainEvals = append(ps.gainEvals, float64(a.GainEvaluations()))
		ps.support = append(ps.support, float64(len(a.Support())))
		winners = out.Winners
	}
	s0 := time.Now()
	if err := e.replayAcct.Spend(e.eps); err != nil {
		return err
	}
	tr.add("mechanism.spend", rp, idx, s0, time.Now())
	if e.skills == nil {
		return nil
	}
	var reports []crowd.Report
	for _, k := range winners {
		for _, l := range e.labels[pr][k] {
			reports = append(reports, crowd.Report{Worker: k, Task: l.Task, Label: l.Label})
		}
	}
	m0 := time.Now()
	res, err := crowd.EstimateSkills(reports, len(inst.Workers), inst.NumTasks, crowd.EMOptions{})
	if err != nil {
		return err
	}
	tr.add("crowd.em", rp, idx, m0, time.Now())
	ps.emIters = append(ps.emIters, float64(res.Iterations))
	return nil
}

// replaySharded routes the round's bids with shard.PartitionFor,
// rebuilds every partition's auction concurrently, and draws each (from
// its own seed; the draw's cost does not depend on which).
func (e *roundEnv) replaySharded(ps *pass, idx, pr, rp int, inst core.Instance) error {
	tr := e.tr
	parts := e.p.Shards
	members := make([][]int, parts)
	for k, w := range inst.Workers {
		q := shard.PartitionFor(w.ID, parts)
		members[q] = append(members[q], k)
	}
	most := 0
	subs := make([]core.Instance, parts)
	for q, m := range members {
		if len(m) > most {
			most = len(m)
		}
		sub := inst
		sub.Workers, sub.Skills = nil, nil
		for _, k := range m {
			sub.Workers = append(sub.Workers, inst.Workers[k])
			sub.Skills = append(sub.Skills, inst.Skills[k])
		}
		subs[q] = sub
	}
	ps.skew = append(ps.skew, float64(most)*float64(parts)/float64(len(inst.Workers)))

	built := make([]*core.Auction, parts)
	errs := make([]error, parts)
	times := make([][2]time.Time, parts)
	b0 := time.Now()
	var wg sync.WaitGroup
	for q := range subs {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			t0 := time.Now()
			built[q], errs[q] = e.rebuild(q, subs[q])
			times[q] = [2]time.Time{t0, time.Now()}
		}(q)
	}
	wg.Wait()
	bid := tr.add("core.build", rp, idx, b0, time.Now())
	slowest, evals, support := 0.0, 0.0, 0.0
	for q, a := range built {
		if errs[q] != nil {
			return fmt.Errorf("partition %d: %w", q, errs[q])
		}
		tr.add("shard.build", bid, idx, times[q][0], times[q][1])
		if d := times[q][1].Sub(times[q][0]).Seconds(); d > slowest {
			slowest = d
		}
		evals += float64(a.GainEvaluations())
		support += float64(len(a.Support()))
	}
	ps.buildMax = append(ps.buildMax, slowest)
	ps.gainEvals = append(ps.gainEvals, evals)
	ps.support = append(ps.support, support/float64(parts))
	for q, a := range built {
		d0 := time.Now()
		a.Run(newRand(int64(mix(uint64(protocol.RoundSeed(e.seed, pr)), uint64(q)))))
		tr.add("core.draw", rp, idx, d0, time.Now())
	}
	return nil
}

// rebuild returns replay auction slot q rebuilt in place over inst,
// built on first use. Slot q is only touched by one goroutine at a time.
func (e *roundEnv) rebuild(q int, inst core.Instance) (*core.Auction, error) {
	if e.replays[q] == nil {
		a, err := core.New(inst)
		if err != nil {
			return nil, err
		}
		e.replays[q] = a
		return a, nil
	}
	if err := e.replays[q].Rebuild(inst); err != nil {
		e.replays[q] = nil
		return nil, err
	}
	return e.replays[q], nil
}
