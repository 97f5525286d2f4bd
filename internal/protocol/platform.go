package protocol

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/shard"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// Platform-side errors.
var (
	ErrNoBids       = errors.New("protocol: no valid bids received")
	ErrBadPlatform  = errors.New("protocol: invalid platform configuration")
	ErrDuplicateBid = errors.New("protocol: duplicate worker id")
	// ErrQuorumNotMet reports a round that closed its bid window with
	// fewer accepted bids than cfg.Quorum requires. The round spent no
	// privacy budget; the platform may simply run another round.
	ErrQuorumNotMet = errors.New("protocol: quorum not met")
	// ErrTooManyConnections reports a connection rejected because the
	// platform is already servicing cfg.MaxConns connections; the
	// worker should back off and retry.
	ErrTooManyConnections = errors.New("protocol: connection limit reached")
)

// IsDegraded reports whether a round error is a graceful degradation —
// too few bids survived the network, the surviving bids cannot cover
// the tasks, or too few shard partitions survived a sharded round — as
// opposed to a hard failure. Degraded rounds never debit the privacy
// accountant, so a campaign can safely skip them and try again.
func IsDegraded(err error) bool {
	return errors.Is(err, ErrNoBids) ||
		errors.Is(err, ErrQuorumNotMet) ||
		errors.Is(err, core.ErrInfeasible) ||
		errors.Is(err, shard.ErrNoPartitions) ||
		errors.Is(err, shard.ErrPartitionQuorum)
}

// SkillFunc supplies the platform's historical skill estimate for a
// worker (Section III-A: theta is maintained by the platform from
// prior rounds, gold tasks, or truth discovery — see crowd.EstimateSkills).
// The returned row is read-only: an implementation may hand the same
// slice to every call (SkillStore.Func does), and the platform and the
// auction only read it (core copies rows into its own instance).
type SkillFunc func(workerID string, numTasks int) []float64

// PlatformConfig parameterizes one auction round.
type PlatformConfig struct {
	// Task model.
	NumTasks   int
	Thresholds []float64
	// Auction parameters.
	Epsilon   float64
	CMin      float64
	CMax      float64
	PriceGrid []float64
	// Skills supplies the theta row per worker.
	Skills SkillFunc
	// BidWindow is how long bids are accepted after the round starts.
	BidWindow time.Duration
	// MinWorkers closes the window early once this many bids arrived;
	// 0 means wait out the whole window.
	MinWorkers int
	// Quorum is the minimum number of accepted bids required to run
	// the auction; a round that closes its window with fewer fails
	// with ErrQuorumNotMet (ErrNoBids when zero bids arrived) without
	// spending privacy budget. Values below 1 mean 1.
	Quorum int
	// IOTimeout bounds each message exchange; defaults to 10s.
	IOTimeout time.Duration
	// Seed roots the mechanism's randomness; 0 derives from the clock.
	Seed int64
	// Accountant, when non-nil, meters the platform's cumulative
	// privacy loss under basic sequential composition. The budget is
	// checked before bids are collected and debited exactly once per
	// round, at the moment the price draw is committed; rounds that
	// degrade before that point (no bids, no quorum, infeasible) spend
	// nothing.
	Accountant *mechanism.Accountant
	// Events receives the platform's structured event stream: round
	// lifecycle, per-phase completions carrying the round's span IDs
	// (log<->trace correlation), tolerated faults, and bid handshake
	// outcomes. evlog is the protocol's only sanctioned logging sink
	// (mcs-lint MCS-DPL003); bid values never enter the stream — the
	// field API admits them only through Redacted/Aggregate wrappers.
	// Nil disables event logging at zero cost.
	Events *evlog.Logger
	// Telemetry, when non-nil, receives the platform's metric families
	// (mcs_protocol_*) and is threaded into the auction core and the
	// privacy accountant. Nil disables all recording at zero cost.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records one span tree per round
	// (round -> collect-bids / auction / labels / aggregate).
	Tracer *telemetry.Tracer
	// Checkpoints, when non-nil, journals campaign progress: a
	// round.begin record before each round attempt and a round.complete
	// record (payment, paid worker IDs) after. A begin that cannot be
	// journaled fails the round before any side effects — a round whose
	// attempt could be forgotten by a crash might re-pay its winners on
	// resume.
	Checkpoints store.CampaignStore
	// StartRound is the first round index this platform will run — 0
	// for a fresh campaign, store.CampaignState.NextRound when resuming
	// a recovered one. Each round derives its mechanism randomness from
	// RoundSeed(Seed, index), so a resumed campaign re-creates the
	// exact per-round seeds of the unbroken run without ever re-drawing
	// a round it already paid.
	StartRound int
	// Shards, when > 1, partitions each round's accepted bids across
	// that many auction partitions by consistent worker-ID hashing
	// (see internal/shard): bids are batched into per-partition core
	// auctions through bounded queues, the partitions run concurrently
	// at round close, and their outcomes merge under a single
	// parallel-composition debit — the same epsilon the unsharded
	// round spends, bit-for-bit. 0 or 1 keeps the single-auction path.
	Shards int
	// ShardQueueDepth bounds each partition's ingest queue (batches);
	// ShardBatch sets the bids-per-batch coalescing size; ShardMaxBids
	// caps admissions per partition per round. Zero values take the
	// shard package defaults (64 / 32 / depth*batch). A full queue or
	// cap rejects further bids with backpressure rather than buffering
	// without bound.
	ShardQueueDepth int
	ShardBatch      int
	ShardMaxBids    int
	// ShardQuorum is the minimum number of partitions that must
	// produce an outcome for a sharded round to complete; a partition
	// killed mid-round degrades the round to a fault-accounted partial
	// outcome over the survivors as long as the quorum holds. Values
	// below 1 mean 1.
	ShardQuorum int
	// ShardChaos, when non-nil, is consulted once per (round,
	// partition) at auction time: true simulates that partition
	// crashing mid-round. Deterministic implementations live in
	// internal/faultnet (PartitionPlan.Kills).
	ShardChaos shard.KillFunc
	// MaxConns caps concurrently serviced connections; further
	// connects during a round are rejected with ErrTooManyConnections
	// (counted under mcs_protocol_bids_total{result="rejected"}). 0
	// means unlimited. The live count is exported as the
	// mcs_protocol_connections_active gauge either way.
	MaxConns int
}

// validate checks the configuration.
func (c *PlatformConfig) validate() error {
	switch {
	case c.NumTasks <= 0:
		return fmt.Errorf("%w: NumTasks=%d", ErrBadPlatform, c.NumTasks)
	case len(c.Thresholds) != c.NumTasks:
		return fmt.Errorf("%w: %d thresholds for %d tasks", ErrBadPlatform, len(c.Thresholds), c.NumTasks)
	case c.Skills == nil:
		return fmt.Errorf("%w: nil SkillFunc", ErrBadPlatform)
	case c.Epsilon <= 0:
		return fmt.Errorf("%w: epsilon=%v", ErrBadPlatform, c.Epsilon)
	case len(c.PriceGrid) == 0:
		return fmt.Errorf("%w: empty price grid", ErrBadPlatform)
	case c.BidWindow <= 0:
		return fmt.Errorf("%w: BidWindow=%v", ErrBadPlatform, c.BidWindow)
	case c.Quorum < 0:
		return fmt.Errorf("%w: Quorum=%d", ErrBadPlatform, c.Quorum)
	case c.StartRound < 0:
		return fmt.Errorf("%w: StartRound=%d", ErrBadPlatform, c.StartRound)
	case c.Shards < 0 || c.ShardQueueDepth < 0 || c.ShardBatch < 0 || c.ShardMaxBids < 0:
		return fmt.Errorf("%w: Shards=%d ShardQueueDepth=%d ShardBatch=%d ShardMaxBids=%d",
			ErrBadPlatform, c.Shards, c.ShardQueueDepth, c.ShardBatch, c.ShardMaxBids)
	case c.Shards > 1 && c.ShardQuorum > c.Shards:
		return fmt.Errorf("%w: ShardQuorum=%d exceeds Shards=%d", ErrBadPlatform, c.ShardQuorum, c.Shards)
	case c.MaxConns < 0:
		return fmt.Errorf("%w: MaxConns=%d", ErrBadPlatform, c.MaxConns)
	}
	return nil
}

// RoundSeed derives the mechanism seed for one round from the
// campaign's base seed. The derivation is a splitmix64 finalizer — a
// bijective avalanche mix — so distinct rounds get decorrelated
// streams while any process holding (base, round) re-derives the
// identical seed. This is what lets a killed-and-restarted campaign
// resume at round k with exactly the randomness the unbroken run would
// have used, instead of re-seeding every round from the base value
// (which both correlated rounds and made resumption re-draw round 0's
// stream forever).
func RoundSeed(base int64, round int) int64 {
	z := uint64(base) + (uint64(round)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// RoundFaults counts the per-session failures a round tolerated
// instead of failing. A fully healthy round is the zero value.
type RoundFaults struct {
	// HandshakesFailed counts connections that never produced an
	// accepted bid: timeouts, cut streams, corrupt frames, bad bids.
	HandshakesFailed int `json:"handshakes_failed"`
	// DuplicatesRejected counts bids refused because the worker ID had
	// already bid this round.
	DuplicatesRejected int `json:"duplicates_rejected"`
	// WinnersUnreachable counts winners that could not be notified of
	// the outcome; they are treated as evicted.
	WinnersUnreachable int `json:"winners_unreachable"`
	// WinnersEvicted counts winners that failed to deliver labels
	// within the IO timeout; the round completes without their data.
	WinnersEvicted int `json:"winners_evicted"`
	// LosersUnnotified counts losers whose outcome notification failed
	// (harmless: they time out on their own).
	LosersUnnotified int `json:"losers_unnotified"`
	// PartitionsLost counts shard partitions killed mid-round; the
	// round completed as a partial outcome over the survivors. Always
	// 0 for unsharded rounds.
	PartitionsLost int `json:"partitions_lost,omitempty"`
}

// Total sums all tolerated faults.
func (f RoundFaults) Total() int {
	return f.HandshakesFailed + f.DuplicatesRejected + f.WinnersUnreachable +
		f.WinnersEvicted + f.LosersUnnotified + f.PartitionsLost
}

// RoundReport summarizes one completed auction round.
type RoundReport struct {
	// Round is the campaign-wide round index (starting at
	// cfg.StartRound for a recovered campaign), the same index
	// journaled in the store's round.begin / round.complete records.
	Round int
	// Bidders is the number of accepted bids.
	Bidders int
	// Outcome is the auction result; winner indices refer to bidders
	// sorted by worker ID (WorkerIDs maps them back to identities).
	Outcome core.Outcome
	// WorkerIDs lists bidders in index order (sorted by ID, so the
	// report is deterministic regardless of connection arrival order).
	WorkerIDs []string
	// Aggregated is the platform's label estimate per task after
	// weighted aggregation of winner reports.
	Aggregated []crowd.Label
	// ReportsReceived counts label reports collected from winners.
	ReportsReceived int
	// Faults accounts the per-session failures the round survived.
	Faults RoundFaults
	// Sharding carries the per-partition breakdown of a sharded round
	// (Shards > 1): partition statuses, bid counts, and per-partition
	// clearing prices. Nil for unsharded rounds. For sharded rounds
	// Outcome.Price is 0 — each winner is paid its own partition's
	// clearing price (see Sharding.Winners) and Outcome.TotalPayment
	// sums the partition totals.
	Sharding *shard.RoundOutcome `json:",omitempty"`
}

// Platform runs DP-hSRC auction rounds over TCP.
type Platform struct {
	cfg PlatformConfig
	met platformMetrics
	// coord partitions sharded rounds; nil when Shards <= 1.
	coord *shard.Coordinator
	// connsActive tracks concurrently serviced connections for the
	// MaxConns admission check; the telemetry gauge mirrors it (the
	// atomic is authoritative because nil-registry gauges cannot be
	// read back).
	connsActive atomic.Int64
	// roundMu guards nextRound, the campaign-wide index handed to the
	// next round attempt. It starts at cfg.StartRound and advances once
	// per attempt, completed or not, matching the journal's
	// skip-begun-rounds resume rule.
	roundMu   sync.Mutex
	nextRound int
	// auctionMu guards auction, the reusable DP auction rebuilt in
	// place each round (core.Auction.Rebuild) so consecutive rounds
	// stop paying New's allocations. A concurrent round attempt that
	// cannot take the lock falls back to a fresh construction.
	auctionMu sync.Mutex
	auction   *core.Auction
	// statusMu guards status, the live round/phase position published
	// to the operator console.
	statusMu sync.Mutex
	status   RoundStatus
}

// RoundStatus is the platform's live position in the round lifecycle,
// read by the operator console. Phase is PhaseIdle between rounds and
// one of the four round phase names while one runs.
type RoundStatus struct {
	Round int    `json:"round"`
	Phase string `json:"phase"`
}

// Round phase names as published in RoundStatus (and on round.phase
// events, except idle which marks the gap between rounds).
const (
	PhaseIdle        = "idle"
	PhaseCollectBids = "collect-bids"
	PhaseAuction     = "auction"
	PhaseLabels      = "labels"
	PhaseAggregate   = "aggregate"
)

// setStatus publishes the platform's position.
func (p *Platform) setStatus(round int, phase string) {
	p.statusMu.Lock()
	p.status = RoundStatus{Round: round, Phase: phase}
	p.statusMu.Unlock()
}

// Status returns the live round/phase position.
func (p *Platform) Status() RoundStatus {
	p.statusMu.Lock()
	defer p.statusMu.Unlock()
	return p.status
}

// ShardStats returns the live per-partition stats, nil when the
// platform runs unsharded.
func (p *Platform) ShardStats() []shard.PartitionStats {
	if p.coord == nil {
		return nil
	}
	return p.coord.Stats()
}

// ConnectionsActive returns the number of worker connections currently
// being serviced.
func (p *Platform) ConnectionsActive() int64 {
	return p.connsActive.Load()
}

// NewPlatform validates the configuration and returns a Platform.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 10 * time.Second
	}
	if cfg.Quorum < 1 {
		cfg.Quorum = 1
	}
	if cfg.Seed == 0 {
		//mcslint:allow MCS-DET002 fallback seed for callers that supplied none; the chosen value is logged and exported via mcs_protocol_seed_info so the run stays replayable after the fact
		cfg.Seed = time.Now().UnixNano()
	}
	p := &Platform{
		cfg:       cfg,
		met:       newPlatformMetrics(cfg.Telemetry),
		nextRound: cfg.StartRound,
		status:    RoundStatus{Round: cfg.StartRound, Phase: PhaseIdle},
	}
	if cfg.Shards > 1 {
		coord, err := shard.NewCoordinator(shard.Config{
			Partitions:          cfg.Shards,
			QueueDepth:          cfg.ShardQueueDepth,
			BatchSize:           cfg.ShardBatch,
			MaxBidsPerPartition: cfg.ShardMaxBids,
			Quorum:              cfg.ShardQuorum,
			NumTasks:            cfg.NumTasks,
			Thresholds:          cfg.Thresholds,
			Epsilon:             cfg.Epsilon,
			CMin:                cfg.CMin,
			CMax:                cfg.CMax,
			PriceGrid:           cfg.PriceGrid,
			Skills:              shard.SkillFunc(cfg.Skills),
			Accountant:          cfg.Accountant,
			Events:              cfg.Events,
			Telemetry:           cfg.Telemetry,
			Chaos:               cfg.ShardChaos,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPlatform, err)
		}
		p.coord = coord
	}
	cfg.Events.Info("platform.seed", evlog.Int64("seed", cfg.Seed))
	// An int64 seed exceeds float64's exact-integer range, so the value
	// rides in a label (info-style gauge) rather than the sample.
	cfg.Telemetry.Gauge(
		fmt.Sprintf("mcs_protocol_seed_info{seed=%q}", strconv.FormatInt(cfg.Seed, 10)),
		"Mechanism seed for this platform; the value is the seed label.").Set(1)
	if cfg.Accountant != nil {
		cfg.Accountant.Instrument(cfg.Telemetry)
		if cfg.Events != nil {
			// Only attach when this platform actually logs events: the
			// accountant may be shared with another platform whose
			// stream must not be torn down by this one's nil.
			cfg.Accountant.ObserveEvents(cfg.Events)
		}
	}
	return p, nil
}

// Seed returns the mechanism seed the platform resolved at
// construction (the configured value, or the clock-derived fallback),
// so callers can record it in a run manifest.
func (p *Platform) Seed() int64 { return p.cfg.Seed }

// claimRound hands out the next campaign-wide round index. Every
// attempt consumes an index — degraded rounds too — so the journal's
// resume point (one past the highest begun round) and the live
// counter always agree.
func (p *Platform) claimRound() int {
	p.roundMu.Lock()
	defer p.roundMu.Unlock()
	r := p.nextRound
	p.nextRound++
	return r
}

// session is one worker's connection state.
type session struct {
	conn     *Conn
	workerID string
	bundle   []int
	price    float64
}

// RunRound accepts bids on the listener for the configured window, runs
// the DP-hSRC auction, collects winner labels, aggregates and settles.
// The listener is not closed; callers own its lifecycle. ctx cancels
// the round early.
//
// The round either completes with at least cfg.Quorum bids or fails
// with a typed error (ErrNoBids, ErrQuorumNotMet, core.ErrInfeasible,
// mechanism.ErrBudgetExhausted); individual worker failures downgrade
// to RoundFaults entries rather than failing the round.
func (p *Platform) RunRound(ctx context.Context, ln net.Listener) (RoundReport, error) {
	rep, _, err := p.runRoundCollecting(ctx, ln)
	return rep, err
}

// runRoundCollecting is RunRound plus the raw label reports, which the
// multi-round campaign feeds to truth discovery. It wraps roundPhases
// with the round-level telemetry: one span tree, the end-to-end
// latency, and the final outcome tally.
func (p *Platform) runRoundCollecting(ctx context.Context, ln net.Listener) (RoundReport, []crowd.Report, error) {
	reg := p.cfg.Telemetry
	ev := p.cfg.Events
	round := p.claimRound()
	if p.cfg.Checkpoints != nil {
		// The begin checkpoint is write-ahead: a round whose attempt is
		// not durable must not run, or a crash could re-run (and re-pay)
		// it on resume.
		if err := p.cfg.Checkpoints.RecordRoundBegin(round); err != nil {
			return RoundReport{Round: round}, nil, fmt.Errorf("protocol: checkpointing round %d begin: %w", round, err)
		}
	}
	start := reg.Now()
	defer p.setStatus(round, PhaseIdle)
	root := p.cfg.Tracer.StartSpan("round")
	ev.Info("round.start", evlog.Int64("span", root.ID()), evlog.Int("round", round))
	rep, reports, err := p.roundPhases(ctx, ln, round, root)
	rep.Round = round
	root.End()
	p.met.roundSeconds.Observe(reg.Since(start))
	switch {
	case err == nil:
		if p.cfg.Checkpoints != nil {
			// Journal the completion with the paid winners before the
			// report is released: if this write fails, the round stays
			// "begun" in the journal and resume skips it — which is the
			// safe reading, since its payments have already gone out.
			paid := make([]string, 0, len(rep.Outcome.Winners))
			for _, w := range rep.Outcome.Winners {
				if w >= 0 && w < len(rep.WorkerIDs) {
					paid = append(paid, rep.WorkerIDs[w])
				}
			}
			if cerr := p.cfg.Checkpoints.RecordRoundComplete(round, rep.Outcome.TotalPayment, paid); cerr != nil {
				p.met.roundsFailed.Inc()
				ev.Error("round.failed", evlog.Int64("span", root.ID()), evlog.Int("round", round), evlog.String("reason", "checkpoint"))
				return rep, reports, fmt.Errorf("protocol: checkpointing round %d completion: %w", round, cerr)
			}
		}
		p.met.roundsCompleted.Inc()
		// The clearing price is the mechanism's DP output — the one
		// sanctioned release — so it rides in an Aggregate wrapper.
		ev.Info("round.complete",
			evlog.Int64("span", root.ID()),
			evlog.Int("round", round),
			evlog.Int("bidders", rep.Bidders),
			evlog.Int("winners", len(rep.Outcome.Winners)),
			evlog.Aggregate("clearing_price", rep.Outcome.Price),
			evlog.Int("reports_received", rep.ReportsReceived),
			evlog.Int("faults", rep.Faults.Total()))
	case errors.Is(err, ErrQuorumNotMet):
		p.met.quorumFailures.Inc()
		p.met.roundsDegraded.Inc()
		ev.Warn("round.degraded", evlog.Int64("span", root.ID()), evlog.Int("round", round), evlog.String("reason", "quorum_not_met"))
	case IsDegraded(err):
		p.met.roundsDegraded.Inc()
		ev.Warn("round.degraded", evlog.Int64("span", root.ID()), evlog.Int("round", round), evlog.String("reason", degradeReason(err)))
	case errors.Is(err, mechanism.ErrBudgetExhausted):
		p.met.budgetRefusals.Inc()
		p.met.roundsFailed.Inc()
		ev.Error("round.failed", evlog.Int64("span", root.ID()), evlog.Int("round", round), evlog.String("reason", "budget_exhausted"))
	default:
		p.met.roundsFailed.Inc()
		ev.Error("round.failed", evlog.Int64("span", root.ID()), evlog.Int("round", round), evlog.String("reason", "error"))
	}
	return rep, reports, err
}

// degradeReason classifies a graceful degradation for the event
// stream.
func degradeReason(err error) string {
	switch {
	case errors.Is(err, ErrNoBids):
		return "no_bids"
	case errors.Is(err, core.ErrInfeasible):
		return "infeasible"
	default:
		return "degraded"
	}
}

// roundPhases runs the four phases of a round — collect-bids, auction,
// labels, aggregate — each timed into mcs_protocol_phase_seconds and
// traced as a child of root. round is the campaign-wide index that
// roots this round's mechanism randomness.
func (p *Platform) roundPhases(ctx context.Context, ln net.Listener, round int, root *telemetry.Span) (RoundReport, []crowd.Report, error) {
	reg := p.cfg.Telemetry
	ev := p.cfg.Events
	// phaseDone times a phase into the histogram and mirrors it as a
	// round.phase event carrying the phase's span ID and the round's
	// root span ID, so a log line can be joined to the trace tree.
	phaseDone := func(name string, span *telemetry.Span, h *telemetry.Histogram, start time.Time) {
		span.End()
		el := reg.Since(start)
		h.Observe(el)
		ev.Debug("round.phase",
			evlog.String("phase", name),
			evlog.Int64("span", span.ID()),
			evlog.Int64("parent", root.ID()),
			evlog.Float("elapsed_seconds", el))
	}
	if p.cfg.Accountant != nil {
		// Refuse up front when the budget cannot cover this round: a
		// doomed round must not even collect bids. The actual debit
		// happens later, at the moment the price draw is committed, so
		// rounds that degrade beforehand spend nothing. A sharded
		// round's merged debit is the parallel composition of the
		// partition epsilons — exactly cfg.Epsilon — so the same check
		// covers both paths.
		if rem := p.cfg.Accountant.Remaining(); rem+1e-12 < p.cfg.Epsilon {
			return RoundReport{}, nil, fmt.Errorf("%w: remaining %v cannot cover epsilon %v",
				mechanism.ErrBudgetExhausted, rem, p.cfg.Epsilon)
		}
	}
	if p.coord != nil {
		// Open the shard ingest queues before the bid window; the
		// deferred close is idempotent and guarantees the partition
		// collectors drain on every exit path, including degradations.
		p.coord.BeginRound(round)
		defer p.coord.CloseRound()
	}

	p.setStatus(round, PhaseCollectBids)
	collectStart := reg.Now()
	collectSpan := root.StartChild("collect-bids")
	sessions, faults, err := p.collectBids(ctx, ln, collectSpan.ID())
	phaseDone("collect-bids", collectSpan, p.met.phaseCollect, collectStart)
	if err != nil {
		return RoundReport{}, nil, err
	}
	defer func() {
		for _, s := range sessions {
			_ = s.conn.Close()
			p.releaseConn()
		}
	}()
	// Deterministic order: the auction's worker indices follow sorted
	// IDs, not connection arrival order, so identical surviving bid
	// sets yield byte-identical reports.
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].workerID < sessions[j].workerID })

	switch {
	case len(sessions) == 0:
		return RoundReport{Faults: faults}, nil, ErrNoBids
	case len(sessions) < p.cfg.Quorum:
		return RoundReport{Faults: faults}, nil,
			fmt.Errorf("%w: %d of %d required bids", ErrQuorumNotMet, len(sessions), p.cfg.Quorum)
	}
	ev.Info("round.bids_collected",
		evlog.Int64("span", collectSpan.ID()),
		evlog.Int("bids", len(sessions)),
		evlog.Int("faults", faults.Total()))

	p.setStatus(round, PhaseAuction)
	auctionStart := reg.Now()
	auctionSpan := root.StartChild("auction")
	var (
		outcome      core.Outcome
		skills       [][]float64
		winnerPrices []float64
		shardOut     *shard.RoundOutcome
	)
	if p.coord != nil {
		outcome, skills, winnerPrices, shardOut, err = p.runShardedAuctionPhase(ctx, sessions, round, auctionSpan.ID(), &faults)
	} else {
		var inst core.Instance
		outcome, inst, err = p.runAuctionPhase(sessions, round, auctionSpan.ID())
		skills = inst.Skills
		// Single auction: every winner is paid the one sampled
		// clearing price.
		winnerPrices = make([]float64, len(sessions))
		for _, w := range outcome.Winners {
			winnerPrices[w] = outcome.Price
		}
	}
	phaseDone("auction", auctionSpan, p.met.phaseAuction, auctionStart)
	if err != nil {
		return RoundReport{Faults: faults, Sharding: shardOut}, nil, err
	}

	report := RoundReport{
		Bidders:  len(sessions),
		Outcome:  outcome,
		Sharding: shardOut,
	}
	for _, s := range sessions {
		report.WorkerIDs = append(report.WorkerIDs, s.workerID)
	}

	winners := make(map[int]bool, len(outcome.Winners))
	for _, w := range outcome.Winners {
		winners[w] = true
	}

	p.setStatus(round, PhaseLabels)
	labelsStart := reg.Now()
	labelsSpan := root.StartChild("labels")

	// Notify losers and release them.
	for i, s := range sessions {
		if winners[i] {
			continue
		}
		if err := s.conn.Send(Message{Type: TypeOutcome, Won: false}); err != nil {
			faults.LosersUnnotified++
			p.met.faultLoserUnnotified.Inc()
			ev.Warn("round.fault",
				evlog.String("kind", "loser_unnotified"),
				evlog.Int64("span", labelsSpan.ID()),
				evlog.String("worker", s.workerID))
			continue
		}
		_ = s.conn.Send(Message{Type: TypeDone})
	}

	// Winners: request labels, collect, settle — concurrently, so one
	// stalled winner costs the round a single IO timeout, not a
	// serialized wait per straggler. A winner that cannot be reached
	// or does not deliver within the timeout is evicted; the round
	// completes with whoever answered. Results are assembled in
	// session-index order afterwards to keep the report deterministic.
	perWinner := make([][]crowd.Report, len(sessions))
	var (
		wg  sync.WaitGroup
		fmu sync.Mutex
	)
	for i := range sessions {
		if !winners[i] {
			continue
		}
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			if err := s.conn.Send(Message{Type: TypeOutcome, Won: true, ClearingPrice: winnerPrices[i]}); err != nil {
				fmu.Lock()
				faults.WinnersUnreachable++
				fmu.Unlock()
				p.met.faultWinnerUnreachable.Inc()
				ev.Warn("round.fault",
					evlog.String("kind", "winner_unreachable"),
					evlog.Int64("span", labelsSpan.ID()),
					evlog.String("worker", s.workerID))
				return
			}
			m, err := s.conn.Expect(TypeLabels)
			if err != nil {
				fmu.Lock()
				faults.WinnersEvicted++
				fmu.Unlock()
				p.met.faultWinnerEvicted.Inc()
				ev.Warn("round.fault",
					evlog.String("kind", "winner_evicted"),
					evlog.Int64("span", labelsSpan.ID()),
					evlog.String("worker", s.workerID))
				return
			}
			var got []crowd.Report
			for _, lr := range m.Reports {
				if lr.Task < 0 || lr.Task >= p.cfg.NumTasks {
					continue
				}
				got = append(got, crowd.Report{Worker: i, Task: lr.Task, Label: crowd.Label(lr.Label)})
			}
			perWinner[i] = got
			_ = s.conn.Send(Message{Type: TypePayment, Amount: winnerPrices[i]})
			_ = s.conn.Send(Message{Type: TypeDone})
		}(i, sessions[i])
	}
	wg.Wait()
	phaseDone("labels", labelsSpan, p.met.phaseLabels, labelsStart)

	var reports []crowd.Report
	for _, rs := range perWinner {
		reports = append(reports, rs...)
	}
	report.ReportsReceived = len(reports)
	report.Faults = faults

	p.setStatus(round, PhaseAggregate)
	aggStart := reg.Now()
	aggSpan := root.StartChild("aggregate")
	agg, err := crowd.WeightedAggregate(reports, skills, p.cfg.NumTasks)
	phaseDone("aggregate", aggSpan, p.met.phaseAggregate, aggStart)
	if err != nil {
		return RoundReport{Faults: faults}, nil, fmt.Errorf("protocol: aggregation: %w", err)
	}
	report.Aggregated = agg
	return report, reports, nil
}

// runAuctionPhase assembles the instance from the accepted bids, debits
// the privacy accountant, and runs the DP-hSRC auction. The price draw
// is the privacy-relevant release: the accountant is debited exactly
// once, immediately before it. The mechanism randomness is rooted at
// RoundSeed(cfg.Seed, round), so every round draws a distinct stream
// and a recovered campaign re-derives the same stream for the same
// round index. spanID labels the phase's events for log<->trace
// correlation.
func (p *Platform) runAuctionPhase(sessions []*session, round int, spanID int64) (core.Outcome, core.Instance, error) {
	inst, err := p.buildInstance(sessions)
	if err != nil {
		return core.Outcome{}, core.Instance{}, err
	}
	auction, release, err := p.acquireAuction(inst)
	if err != nil {
		return core.Outcome{}, core.Instance{}, fmt.Errorf("protocol: building auction: %w", err)
	}
	defer release()
	if p.cfg.Accountant != nil {
		if err := p.cfg.Accountant.Spend(p.cfg.Epsilon); err != nil {
			return core.Outcome{}, core.Instance{}, err
		}
	}
	outcome := auction.Run(rand.New(rand.NewSource(RoundSeed(p.cfg.Seed, round))))
	// The drawn price is the mechanism's DP-sanctioned release; it still
	// travels wrapped so the stream stays uniformly redaction-typed.
	p.cfg.Events.Debug("round.price_drawn",
		evlog.Int64("span", spanID),
		evlog.Aggregate("clearing_price", outcome.Price),
		evlog.Int("winners", len(outcome.Winners)))
	return outcome, inst, nil
}

// acquireAuction returns a built auction over inst plus a release
// func. The common sequential-round case takes the platform's reusable
// auction and rebuilds it in place — Rebuild is bitwise-identical to a
// fresh New, so round outcomes (and resumed campaigns, which start
// from a cold auction) are unaffected. If another round holds the
// reusable auction, or a rebuild fails (leaving it unusable until the
// next successful build), the caller gets a fresh construction.
func (p *Platform) acquireAuction(inst core.Instance) (*core.Auction, func(), error) {
	if p.auctionMu.TryLock() {
		if p.auction == nil {
			a, err := core.New(inst,
				core.WithTelemetry(p.cfg.Telemetry),
				core.WithEventLog(p.cfg.Events))
			if err != nil {
				p.auctionMu.Unlock()
				return nil, nil, err
			}
			p.auction = a
			return a, p.auctionMu.Unlock, nil
		}
		if err := p.auction.Rebuild(inst); err != nil {
			p.auction = nil
			p.auctionMu.Unlock()
			return nil, nil, err
		}
		return p.auction, p.auctionMu.Unlock, nil
	}
	a, err := core.New(inst,
		core.WithTelemetry(p.cfg.Telemetry),
		core.WithEventLog(p.cfg.Events))
	if err != nil {
		return nil, nil, err
	}
	return a, func() {}, nil
}

// runShardedAuctionPhase closes the shard round and merges the
// partition auctions (see shard.Coordinator.RunRound), then maps the
// merged outcome back onto session indices: Outcome.Winners are the
// winning sessions in index order and winnerPrices carries each
// winner's own partition clearing price (the amount it is notified of
// and paid). Killed partitions are tolerated faults, accounted under
// RoundFaults.PartitionsLost with one round.fault event each, exactly
// like the per-session fault classes.
func (p *Platform) runShardedAuctionPhase(ctx context.Context, sessions []*session, round int, spanID int64, faults *RoundFaults) (core.Outcome, [][]float64, []float64, *shard.RoundOutcome, error) {
	ev := p.cfg.Events
	so, err := p.coord.RunRound(ctx, RoundSeed(p.cfg.Seed, round))
	for _, pr := range so.Partitions {
		if pr.Status != shard.StatusKilled {
			continue
		}
		faults.PartitionsLost++
		p.met.faultPartitionLost.Inc()
		ev.Warn("round.fault",
			evlog.String("kind", "partition_lost"),
			evlog.Int64("span", spanID),
			evlog.Int("partition", pr.Partition))
	}
	if err != nil {
		return core.Outcome{}, nil, nil, &so, err
	}

	index := make(map[string]int, len(sessions))
	skills := make([][]float64, len(sessions))
	for i, s := range sessions {
		index[s.workerID] = i
		skills[i] = p.cfg.Skills(s.workerID, p.cfg.NumTasks)
	}
	// Merged winners arrive sorted by worker ID and sessions are
	// sorted the same way, so the mapped indices come out ascending —
	// the deterministic order the report contract requires.
	outcome := core.Outcome{Feasible: true, TotalPayment: so.TotalPayment}
	winnerPrices := make([]float64, len(sessions))
	for _, w := range so.Winners {
		i, ok := index[w.WorkerID]
		if !ok {
			// A winner the session table does not know would be a
			// routing bug; fail loudly rather than mis-pay.
			return core.Outcome{}, nil, nil, &so, fmt.Errorf("protocol: sharded winner %q has no session", w.WorkerID)
		}
		outcome.Winners = append(outcome.Winners, i)
		winnerPrices[i] = w.Price
	}
	sort.Ints(outcome.Winners)
	ev.Debug("round.price_drawn",
		evlog.Int64("span", spanID),
		evlog.Aggregate("clearing_price", outcome.Price),
		evlog.Int("winners", len(outcome.Winners)))
	return outcome, skills, winnerPrices, &so, nil
}

// acquireConn reserves one connection slot, returning false when
// cfg.MaxConns is set and already saturated (the reservation is rolled
// back). The atomic reservation means the cap is never overshot even
// under concurrent accepts.
func (p *Platform) acquireConn() bool {
	n := p.connsActive.Add(1)
	if p.cfg.MaxConns > 0 && n > int64(p.cfg.MaxConns) {
		p.connsActive.Add(-1)
		return false
	}
	p.met.connsActive.Add(1)
	return true
}

// releaseConn returns a connection slot reserved by acquireConn.
func (p *Platform) releaseConn() {
	p.connsActive.Add(-1)
	p.met.connsActive.Add(-1)
}

// deadlineListener is a listener whose blocked Accept can be woken by
// setting an accept deadline in the past — net.TCPListener implements
// it, as do the in-memory listeners the tests and the load generator
// use. Wrapper listeners that hide the method (embedding the plain
// net.Listener interface, as internal/faultnet does) fall back to the
// self-connection poke.
type deadlineListener interface {
	net.Listener
	SetDeadline(time.Time) error
}

// collectBids accepts connections and performs the hello/announce/bid
// handshake until the bid window closes, MinWorkers is reached, or ctx
// is cancelled. Individual handshake failures are tolerated and
// tallied, never fatal. spanID labels the phase's events.
func (p *Platform) collectBids(ctx context.Context, ln net.Listener, spanID int64) ([]*session, RoundFaults, error) {
	ev := p.cfg.Events
	windowCtx, cancel := context.WithTimeout(ctx, p.cfg.BidWindow)
	defer cancel()

	var (
		mu       sync.Mutex
		sessions []*session
		faults   RoundFaults
		seen     = make(map[string]bool)
		wg       sync.WaitGroup
	)

	// Unblock Accept when the window ends. A deadline-capable listener
	// is woken directly: SetDeadline applies to an Accept that is
	// already blocked, so setting a deadline in the past makes it
	// return a timeout immediately, with no network traffic. Only
	// listeners without deadline support fall back to poking Accept
	// awake with a self-connection.
	acceptDone := make(chan struct{})
	dl, hasDeadline := ln.(deadlineListener)
	if hasDeadline {
		// Clear the past deadline a previous round's close left set.
		_ = dl.SetDeadline(time.Time{})
		go func() {
			defer close(acceptDone)
			<-windowCtx.Done()
			_ = dl.SetDeadline(time.Unix(1, 0))
		}()
	} else {
		go func() {
			defer close(acceptDone)
			<-windowCtx.Done()
			if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
				_ = conn.Close()
			}
		}()
	}

	for {
		select {
		case <-windowCtx.Done():
			wg.Wait()
			<-acceptDone
			return sessions, faults, nil
		default:
		}
		raw, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// The end-of-window deadline (or a spurious timeout);
				// the top-of-loop select sorts out which.
				continue
			}
			select {
			case <-windowCtx.Done():
				wg.Wait()
				<-acceptDone
				return sessions, faults, nil
			default:
			}
			return nil, faults, fmt.Errorf("protocol: accept: %w", err)
		}
		if !p.acquireConn() {
			// Connection limit reached: reject without handshaking. The
			// rejection write sits on a network deadline, so it runs off
			// the accept loop like every slow-path interaction.
			wg.Add(1)
			go func() {
				defer wg.Done()
				if windowCtx.Err() == nil {
					mu.Lock()
					faults.HandshakesFailed++
					mu.Unlock()
					p.met.bidsRejected.Inc()
					ev.Warn("round.fault",
						evlog.String("kind", "handshake_failed"),
						evlog.Int64("span", spanID),
						evlog.String("cause", "over_limit"))
				}
				_ = NewConn(raw, p.cfg.IOTimeout).SendError(ErrTooManyConnections)
				_ = raw.Close()
			}()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := p.handshake(raw)
			if err != nil {
				_ = raw.Close()
				p.releaseConn()
				// Failures after the window closed are not faults: they
				// are sessions the close itself cut — including the
				// watchdog's own self-connection poke.
				if windowCtx.Err() == nil {
					mu.Lock()
					faults.HandshakesFailed++
					mu.Unlock()
					cause := "rejected"
					if isTimeout(err) {
						cause = "timeout"
						p.met.bidsTimedOut.Inc()
					} else {
						p.met.bidsRejected.Inc()
					}
					ev.Warn("round.fault",
						evlog.String("kind", "handshake_failed"),
						evlog.Int64("span", spanID),
						evlog.String("cause", cause))
				}
				return
			}
			mu.Lock()
			if seen[s.workerID] {
				faults.DuplicatesRejected++
				mu.Unlock()
				// The rejection itself happens outside the critical
				// section: SendError sits on a network write deadline
				// (up to IOTimeout), and mu is what every completing
				// handshake needs to register its bid — one slow
				// duplicate client must not stall the whole window.
				p.met.bidsDuplicate.Inc()
				ev.Warn("round.fault",
					evlog.String("kind", "duplicate_bid"),
					evlog.Int64("span", spanID),
					evlog.String("worker", s.workerID))
				_ = s.conn.SendError(fmt.Errorf("%w: %s", ErrDuplicateBid, s.workerID))
				_ = s.conn.Close()
				p.releaseConn()
				return
			}
			if p.coord != nil {
				// Sharded ingest: the bid is admitted to its partition's
				// bounded queue before the session registers, so a
				// registered session IS an admitted bid — accepted bids
				// are never dropped by backpressure later.
				if serr := p.coord.Submit(shard.Bid{WorkerID: s.workerID, Bundle: s.bundle, Price: s.price}); serr != nil {
					faults.HandshakesFailed++
					mu.Unlock()
					p.met.bidsRejected.Inc()
					ev.Warn("round.fault",
						evlog.String("kind", "handshake_failed"),
						evlog.Int64("span", spanID),
						evlog.String("cause", "shard_overloaded"),
						evlog.String("worker", s.workerID))
					_ = s.conn.SendError(fmt.Errorf("%w: %s", shard.ErrOverloaded, s.workerID))
					_ = s.conn.Close()
					p.releaseConn()
					return
				}
			}
			seen[s.workerID] = true
			sessions = append(sessions, s)
			quorum := p.cfg.MinWorkers > 0 && len(sessions) >= p.cfg.MinWorkers
			mu.Unlock()
			p.met.bidsAccepted.Inc()
			// The bid value is DP-protected input: it never enters the
			// stream, only a Redacted placeholder marking its arrival.
			ev.Debug("bid.accepted",
				evlog.Int64("span", spanID),
				evlog.String("worker", s.workerID),
				evlog.Redacted("bid"))
			if quorum {
				cancel()
			}
		}()
	}
}

// handshake runs hello -> announce -> bid on a fresh connection.
func (p *Platform) handshake(raw net.Conn) (*session, error) {
	conn := NewConn(raw, p.cfg.IOTimeout)
	hello, err := conn.Expect(TypeHello)
	if err != nil {
		return nil, err
	}
	if hello.WorkerID == "" {
		return nil, conn.SendError(errors.New("protocol: empty worker id"))
	}
	announce := Message{
		Type:            TypeAnnounce,
		NumTasks:        p.cfg.NumTasks,
		Thresholds:      p.cfg.Thresholds,
		Epsilon:         p.cfg.Epsilon,
		CMin:            p.cfg.CMin,
		CMax:            p.cfg.CMax,
		PriceGrid:       p.cfg.PriceGrid,
		BidWindowMillis: p.cfg.BidWindow.Milliseconds(),
	}
	if err := conn.Send(announce); err != nil {
		return nil, err
	}
	bid, err := conn.Expect(TypeBid)
	if err != nil {
		return nil, err
	}
	if len(bid.Bundle) == 0 || bid.Price < p.cfg.CMin || bid.Price > p.cfg.CMax {
		return nil, conn.SendError(fmt.Errorf("protocol: invalid bid from %s", hello.WorkerID))
	}
	return &session{
		conn:     conn,
		workerID: hello.WorkerID,
		bundle:   bid.Bundle,
		price:    bid.Price,
	}, nil
}

// buildInstance assembles the auction instance from accepted bids and
// the platform's skill records.
func (p *Platform) buildInstance(sessions []*session) (core.Instance, error) {
	inst := core.Instance{
		NumTasks:   p.cfg.NumTasks,
		Thresholds: append([]float64(nil), p.cfg.Thresholds...),
		Epsilon:    p.cfg.Epsilon,
		CMin:       p.cfg.CMin,
		CMax:       p.cfg.CMax,
		PriceGrid:  append([]float64(nil), p.cfg.PriceGrid...),
	}
	for _, s := range sessions {
		inst.Workers = append(inst.Workers, core.Worker{
			ID:     s.workerID,
			Bundle: append([]int(nil), s.bundle...),
			Bid:    s.price,
		})
		inst.Skills = append(inst.Skills, p.cfg.Skills(s.workerID, p.cfg.NumTasks))
	}
	if err := inst.Validate(); err != nil {
		return core.Instance{}, fmt.Errorf("protocol: assembled instance invalid: %w", err)
	}
	return inst, nil
}
