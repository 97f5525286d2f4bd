package protocol

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/crowd"
)

func TestSkillStoreDefaults(t *testing.T) {
	s := NewSkillStore(0.8)
	if got := s.Get("unknown"); got != 0.8 {
		t.Errorf("unknown worker accuracy %v, want 0.8", got)
	}
	row := s.Func()("unknown", 3)
	if len(row) != 3 || row[0] != 0.8 || row[2] != 0.8 {
		t.Errorf("skill row %v", row)
	}
	// Degenerate default falls back to 0.7.
	if got := NewSkillStore(1.5).Get("x"); got != 0.7 {
		t.Errorf("degenerate default %v", got)
	}
}

func TestSkillStoreUpdateFromReports(t *testing.T) {
	// Two workers: one always right, one always wrong against a large
	// task set; EM should push their stored accuracies apart.
	s := NewSkillStore(0.7)
	const tasks = 60
	var reports []crowd.Report
	r := rand.New(rand.NewSource(3))
	truth := crowd.TrueLabels(r, tasks)
	for j := 0; j < tasks; j++ {
		reports = append(reports,
			crowd.Report{Worker: 0, Task: j, Label: truth[j]},
			crowd.Report{Worker: 1, Task: j, Label: truth[j]},
			crowd.Report{Worker: 2, Task: j, Label: -truth[j]},
		)
	}
	ids := []string{"good-a", "good-b", "bad"}
	if err := s.UpdateFromReports(reports, ids, tasks); err != nil {
		t.Fatal(err)
	}
	if s.Get("good-a") <= s.Get("bad") {
		t.Errorf("good %.3f not above bad %.3f", s.Get("good-a"), s.Get("bad"))
	}
	// A worker with no reports keeps the prior.
	if err := s.UpdateFromReports(reports[:2*tasks], ids, tasks); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("never-seen"); got != 0.7 {
		t.Errorf("unseen worker moved to %v", got)
	}
}

// skillReports is one round of labels on every task: worker 0 always
// agrees with the truth, every other worker always disagrees.
func skillReports(seed int64, tasks, workers int) []crowd.Report {
	truth := crowd.TrueLabels(rand.New(rand.NewSource(seed)), tasks)
	var reports []crowd.Report
	for j := 0; j < tasks; j++ {
		for w := 0; w < workers; w++ {
			label := truth[j]
			if w > 0 {
				label = -label
			}
			reports = append(reports, crowd.Report{Worker: w, Task: j, Label: label})
		}
	}
	return reports
}

// TestSkillStoreFuncCachesRows: Func hands out one read-only row per
// worker until an update writes that worker's accuracy; the update
// swaps in a fresh row and leaves the old one untouched, so an
// instance assembled earlier keeps the skills it was built with.
func TestSkillStoreFuncCachesRows(t *testing.T) {
	s := NewSkillStore(0.8)
	skills := s.Func()
	first := skills("w", 4)
	if again := skills("w", 4); &again[0] != &first[0] {
		t.Fatal("second call returned a new row before any update")
	}
	if other := skills("v", 4); &other[0] == &first[0] {
		t.Fatal("two workers share one row")
	}
	if wide := skills("w", 6); len(wide) != 6 || wide[5] != 0.8 {
		t.Fatalf("row for a different task count: %v", wide)
	}
	const tasks = 40
	if err := s.UpdateFromReports(skillReports(5, tasks, 2), []string{"w", "x"}, tasks); err != nil {
		t.Fatal(err)
	}
	updated := skills("w", 4)
	if &updated[0] == &first[0] {
		t.Fatal("update did not drop the cached row")
	}
	if got := s.Get("w"); updated[0] != got || updated[3] != got || got == 0.8 {
		t.Fatalf("updated row %v, accuracy %v", updated, got)
	}
	for j, v := range first {
		if v != 0.8 {
			t.Fatalf("old row changed at %d: %v", j, first)
		}
	}
	if v := skills("v", 4); v[0] != 0.8 {
		t.Fatalf("worker without reports lost its row value: %v", v)
	}
}

// TestSkillStoreFuncConcurrentWithUpdates gives -race concurrent Func
// readers over workers whose rows UpdateFromReports keeps dropping.
func TestSkillStoreFuncConcurrentWithUpdates(t *testing.T) {
	s := NewSkillStore(0.7)
	skills := s.Func()
	ids := []string{"a", "b", "c", "d"}
	const tasks = 12
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				row := skills(ids[(g+i)%len(ids)], tasks)
				if len(row) != tasks || row[0] != row[tasks-1] {
					t.Errorf("torn row %v", row)
					return
				}
			}
		}(g)
	}
	for round := int64(0); round < 20; round++ {
		if err := s.UpdateFromReports(skillReports(round, tasks, len(ids)), ids, tasks); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestSkillStoreUpdateEmptyReports(t *testing.T) {
	s := NewSkillStore(0.7)
	if err := s.UpdateFromReports(nil, []string{"a"}, 3); err != nil {
		t.Fatalf("empty update should be a no-op: %v", err)
	}
}

func TestRunCampaignLearnsSkills(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const (
		numTasks   = 4
		numWorkers = 6
		rounds     = 3
	)
	store := NewSkillStore(0.9)
	cfg := testPlatformConfig(t)
	cfg.Skills = store.Func()
	cfg.MinWorkers = numWorkers
	cfg.BidWindow = 3 * time.Second
	// Loose error budgets: as truth discovery pulls the noisy workers'
	// estimates down, the round must stay coverable by the sharp three.
	cfg.Thresholds = []float64{0.45, 0.45, 0.45, 0.45}
	platform, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	type result struct {
		campaign CampaignReport
		err      error
	}
	resCh := make(chan result, 1)
	go func() {
		c, err := platform.RunCampaign(ctx, ln, rounds, store)
		resCh <- result{c, err}
	}()

	// True accuracies: three sharp workers, three noisy ones. A shared
	// ground truth per round.
	trueAcc := []float64{0.97, 0.97, 0.97, 0.55, 0.55, 0.55}
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		truthRand := rand.New(rand.NewSource(int64(500 + round)))
		truth := crowd.TrueLabels(truthRand, numTasks)
		for i := 0; i < numWorkers; i++ {
			wg.Add(1)
			go func(i, round int) {
				defer wg.Done()
				obs := rand.New(rand.NewSource(int64(round*100 + i)))
				_, err := Participate(ctx, ln.Addr().String(), WorkerConfig{
					ID:     workerID(i),
					Bundle: []int{0, 1, 2, 3},
					Cost:   6 + float64(i),
					Labels: func(task int) crowd.Label {
						l := truth[task]
						if obs.Float64() >= trueAcc[i] {
							l = -l
						}
						return l
					},
				})
				if err != nil {
					t.Errorf("round %d worker %d: %v", round, i, err)
				}
			}(i, round)
		}
		wg.Wait()
	}

	res := <-resCh
	if res.err != nil {
		t.Fatalf("campaign: %v", res.err)
	}
	if len(res.campaign.Rounds) != rounds {
		t.Fatalf("rounds = %d, want %d", len(res.campaign.Rounds), rounds)
	}
	if res.campaign.TotalPayment <= 0 {
		t.Fatal("no payments made")
	}

	// After three rounds of truth discovery the store should rank sharp
	// workers above noisy ones.
	sharp := (store.Get(workerID(0)) + store.Get(workerID(1)) + store.Get(workerID(2))) / 3
	noisy := (store.Get(workerID(3)) + store.Get(workerID(4)) + store.Get(workerID(5))) / 3
	if !(sharp > noisy) {
		t.Errorf("learned skills do not separate: sharp %.3f vs noisy %.3f", sharp, noisy)
	}
	if math.Abs(sharp-0.9) < 1e-9 {
		t.Error("sharp workers' accuracy never updated from the prior")
	}
}

func TestRunCampaignValidation(t *testing.T) {
	platform, err := NewPlatform(testPlatformConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.RunCampaign(context.Background(), nil, 0, nil); !errors.Is(err, ErrNoRounds) {
		t.Errorf("zero rounds: got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := platform.RunCampaign(ctx, nil, 1, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: got %v", err)
	}
}
