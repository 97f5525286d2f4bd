package protocol

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
)

// roundBidder is one worker of a test round.
type roundBidder struct {
	id   string
	cost float64
}

// runLoopbackRound runs one round of p on a fresh loopback listener
// with the given bidders, each bidding every task at its cost.
func runLoopbackRound(ctx context.Context, p *Platform, bidders []roundBidder) (RoundReport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return RoundReport{}, err
	}
	defer ln.Close()
	errs := make([]error, len(bidders))
	var wg sync.WaitGroup
	for i, b := range bidders {
		wg.Add(1)
		go func(i int, b roundBidder) {
			defer wg.Done()
			_, errs[i] = Participate(ctx, ln.Addr().String(), WorkerConfig{
				ID:        b.id,
				Bundle:    []int{0, 1, 2, 3},
				Cost:      b.cost,
				Labels:    func(int) crowd.Label { return crowd.Positive },
				IOTimeout: 5 * time.Second,
			})
		}(i, b)
	}
	rep, err := p.RunRound(ctx, ln)
	wg.Wait()
	if err != nil {
		return rep, err
	}
	for i, werr := range errs {
		if werr != nil {
			return rep, fmt.Errorf("bidder %s: %w", bidders[i].id, werr)
		}
	}
	return rep, nil
}

// checkRoundOutcome asserts that rep's outcome is the one a fresh
// core.New over the round's admitted bids draws with the round's seed.
func checkRoundOutcome(t *testing.T, cfg PlatformConfig, costs map[string]float64, rep RoundReport) {
	t.Helper()
	inst := core.Instance{
		NumTasks:   cfg.NumTasks,
		Thresholds: cfg.Thresholds,
		Epsilon:    cfg.Epsilon,
		CMin:       cfg.CMin,
		CMax:       cfg.CMax,
		PriceGrid:  cfg.PriceGrid,
	}
	for _, id := range rep.WorkerIDs {
		inst.Workers = append(inst.Workers, core.Worker{ID: id, Bundle: []int{0, 1, 2, 3}, Bid: costs[id]})
		inst.Skills = append(inst.Skills, cfg.Skills(id, cfg.NumTasks))
	}
	a, err := core.New(inst)
	if err != nil {
		t.Fatalf("round %d: %v", rep.Round, err)
	}
	want := a.Run(rand.New(rand.NewSource(RoundSeed(cfg.Seed, rep.Round))))
	if !reflect.DeepEqual(rep.Outcome, want) {
		t.Fatalf("round %d over %v: outcome %+v, fresh build draws %+v", rep.Round, rep.WorkerIDs, rep.Outcome, want)
	}
}

// TestConcurrentRoundsOnOnePlatform: claimRound only orders round
// indices, so two RunRound calls on one Platform can overlap. The test
// holds the reusable auction, as a round in its auction phase does,
// while two rounds run at once on separate listeners: both must build
// through acquireAuction's fresh-New path and leave the reusable
// auction alone. Rounds before and after run on the reusable auction.
// Every outcome must equal a fresh build over that round's admitted
// bids drawn with RoundSeed(seed, round).
func TestConcurrentRoundsOnOnePlatform(t *testing.T) {
	cfg := testPlatformConfig(t)
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	costs := make(map[string]float64)
	bidders := func(prefix string, base float64) []roundBidder {
		bs := make([]roundBidder, cfg.MinWorkers)
		for i := range bs {
			bs[i] = roundBidder{id: fmt.Sprintf("%s%d", prefix, i), cost: base + 1.5*float64(i)}
			costs[bs[i].id] = bs[i].cost
		}
		return bs
	}
	warm, a, b, after := bidders("w", 6), bidders("a", 7), bidders("b", 9.5), bidders("z", 8)

	rep, err := runLoopbackRound(ctx, p, warm)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundOutcome(t, cfg, costs, rep)
	reusable := p.auction
	if reusable == nil {
		t.Fatal("first round left no reusable auction")
	}

	p.auctionMu.Lock()
	reps := make([]RoundReport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, bs := range [][]roundBidder{a, b} {
		wg.Add(1)
		go func(i int, bs []roundBidder) {
			defer wg.Done()
			reps[i], errs[i] = runLoopbackRound(ctx, p, bs)
		}(i, bs)
	}
	wg.Wait()
	if p.auction != reusable {
		t.Error("a concurrent round replaced the reusable auction")
	}
	p.auctionMu.Unlock()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent round %d: %v", i, err)
		}
	}
	if got := reps[0].Round + reps[1].Round; got != 3 || reps[0].Round == reps[1].Round {
		t.Fatalf("concurrent rounds claimed indices %d and %d, want 1 and 2", reps[0].Round, reps[1].Round)
	}
	for _, rep := range reps {
		checkRoundOutcome(t, cfg, costs, rep)
	}

	rep, err = runLoopbackRound(ctx, p, after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Round != 3 || p.auction != reusable {
		t.Fatalf("round %d after the concurrent pair did not reuse the auction", rep.Round)
	}
	checkRoundOutcome(t, cfg, costs, rep)
}
