package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/protocol"
	"github.com/dphsrc/dphsrc/internal/shard"
)

// runTiny runs one workload at the tiny size and returns its standard
// output lines and the decoded result line.
func runTiny(t *testing.T, workload string, trace int) ([]string, result) {
	t.Helper()
	dir := t.TempDir()
	args := []string{
		"-workload", workload, "-seed", "3", "-seconds", "0.2", "-size", "tiny",
		"-trace", map[int]string{0: "0", 1: "1"}[trace],
		"-state-dir", filepath.Join(dir, "state"),
		"-trace-out", filepath.Join(dir, "trace.json"),
	}
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d\nstderr: %s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return lines, res
}

// TestSmokeEveryWorkload runs each workload at the tiny size, untraced
// and traced, and checks that every named metric is printed with its
// unit and that the outputs passed the correctness checks.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames() {
		for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
			lines, res := runTiny(t, w, trace)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s",
					w, trace, res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(specs))
			}
			text := strings.Join(lines[:len(lines)-1], "\n")
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, s.name, m, s.unit)
				}
				if !strings.Contains(text, s.name) || !strings.Contains(text, "("+s.better+" is better)") {
					t.Errorf("%s trace=%d: %s not printed with its direction", w, trace, s.name)
				}
			}
			if !strings.Contains(lines[0], `"gomaxprocs"`) || !strings.Contains(lines[0], `"commit"`) {
				t.Errorf("%s trace=%d: metadata line missing: %s", w, trace, lines[0])
			}
		}
	}
}

// TestSpecsMatchBenchmarkJSON keeps BENCHMARK.json and the program's
// metric and workload lists in step.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit, Better string }
		specs  []metricSpec
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.specs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.listed), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			if l := c.listed[i]; l.Name != s.name || l.Unit != s.unit || l.Better != s.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, program %+v", i, l, s)
			}
		}
	}
}

// twoTask is an instance where each task has exactly one bidder able to
// cover it, so every feasible winner set holds both bidders 0 and 1.
func twoTask() core.Instance {
	return core.Instance{
		NumTasks:   2,
		Thresholds: []float64{0.7, 0.7},
		Workers: []core.Worker{
			{ID: "a", Bundle: []int{0}, Bid: 10},
			{ID: "b", Bundle: []int{1}, Bid: 12},
		},
		Skills:    [][]float64{{0.95, 0.95}, {0.95, 0.95}},
		Epsilon:   0.1,
		CMin:      10,
		CMax:      30,
		PriceGrid: []float64{20, 20.1, 20.2},
	}
}

func TestCheckAcceptsHonestOutcome(t *testing.T) {
	inst := twoTask()
	out, err := rederive(inst, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkUnsharded(inst, out, out); err != nil {
		t.Fatalf("honest outcome rejected: %v", err)
	}
	if len(out.Winners) != 2 {
		t.Fatalf("winners %v, want both bidders", out.Winners)
	}
}

func TestCheckRejectsDroppedWinner(t *testing.T) {
	inst := twoTask()
	want, err := rederive(inst, 42)
	if err != nil {
		t.Fatal(err)
	}
	got := want
	got.Winners = want.Winners[:1]
	got.TotalPayment = got.Price * float64(len(got.Winners))
	if err := checkUnsharded(inst, got, want); !errors.Is(err, core.ErrOutcomeCoverage) {
		t.Fatalf("dropped winner: got %v, want a coverage error", err)
	}
	so := shardedOutcome(want)
	so.Winners = so.Winners[1:]
	so.TotalPayment = so.Winners[0].Price
	if err := checkSharded(so, inst, 2); !errors.Is(err, errCoverage) {
		t.Fatalf("dropped sharded winner: got %v, want a coverage error", err)
	}
}

func TestCheckRejectsPaymentOffByOneStep(t *testing.T) {
	inst := twoTask()
	want, err := rederive(inst, 42)
	if err != nil {
		t.Fatal(err)
	}
	step := inst.PriceGrid[1] - inst.PriceGrid[0]
	paid := protocol.WorkerReport{Won: true, ClearingPrice: want.Price, Payment: want.Price + step}
	if err := checkSettled("a", 10, paid); !errors.Is(err, errSettlement) {
		t.Fatalf("payment one step off: got %v, want a settlement error", err)
	}
	got := want
	got.Winners = append([]int(nil), want.Winners...)
	got.Price = want.Price + step
	got.TotalPayment = got.Price * float64(len(got.Winners))
	if err := checkUnsharded(inst, got, want); !errors.Is(err, errMismatch) {
		t.Fatalf("price one step off: got %v, want a mismatch", err)
	}
	so := shardedOutcome(want)
	so.TotalPayment += step
	if err := checkSharded(so, inst, 2); !errors.Is(err, core.ErrOutcomePayment) {
		t.Fatalf("sharded total one step off: got %v, want a payment error", err)
	}
}

func TestCheckRejectsLostPartitionBid(t *testing.T) {
	inst := twoTask()
	want, err := rederive(inst, 42)
	if err != nil {
		t.Fatal(err)
	}
	so := shardedOutcome(want)
	if err := checkSharded(so, inst, 2); err != nil {
		t.Fatalf("honest sharded outcome rejected: %v", err)
	}
	so.Partitions[1].Bidders--
	if err := checkSharded(so, inst, 2); !errors.Is(err, errPartition) {
		t.Fatalf("lost partition bid: got %v, want a partition error", err)
	}
}

func TestCheckLedgerIsBitExact(t *testing.T) {
	spent := 0.0
	for i := 0; i < 7; i++ {
		spent += 0.1
	}
	if err := checkLedger(spent, 7, 0.1); err != nil {
		t.Fatalf("exact ledger rejected: %v", err)
	}
	if err := checkLedger(math.Nextafter(spent, 1), 7, 0.1); !errors.Is(err, errLedger) {
		t.Fatalf("ledger one ulp off: got %v, want a ledger error", err)
	}
}

// shardedOutcome presents an unsharded outcome over twoTask as a
// two-partition merge, one bidder per partition.
func shardedOutcome(o core.Outcome) *shard.RoundOutcome {
	so := &shard.RoundOutcome{Bidders: 2, TotalPayment: o.TotalPayment}
	for i, id := range []string{"a", "b"} {
		so.Partitions = append(so.Partitions, shard.PartitionReport{
			Partition: i, Bidders: 1, Winners: []string{id}, Price: o.Price,
			TotalPayment: o.Price, Status: shard.StatusOK,
		})
		so.Winners = append(so.Winners, shard.Winner{WorkerID: id, Price: o.Price})
	}
	return so
}
