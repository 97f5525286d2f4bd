package store_test

// Replay-exactness property: for random spend/refuse sequences driven
// through a journaled accountant, the recovered budget state — snapshot
// + WAL replay, at EVERY truncation-to-record-boundary point — is
// bitwise identical to the live accountant at that point in the
// sequence, and to evlog.FoldBudget over the matching prefix of the
// event stream. This is the bridge between the durability layer and
// PR 5's audit ledger: journal, accountant, and event fold are three
// encodings of the same float additions in the same order, so equality
// is ==, not approximately.

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/dphsrc/dphsrc/internal/mechanism"
	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// driveAccountant journals nOps random debits (some of which the
// budget refuses) and returns the live cumulative spend after each op,
// the full event stream, and the raw WAL image.
func driveAccountant(t *testing.T, dir string, rng *rand.Rand, total float64, nOps int) ([]float64, []evlog.Event, []byte) {
	t.Helper()
	js, err := store.Open(dir, store.NoSync(), store.SnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	acct, err := mechanism.NewAccountant(total)
	if err != nil {
		t.Fatal(err)
	}
	ev := evlog.New()
	acct.ObserveEvents(ev)
	if err := acct.ObserveStore(js); err != nil {
		t.Fatal(err)
	}

	liveSpent := []float64{0}
	for i := 0; i < nOps; i++ {
		eps := rng.Float64() * total / 8
		if eps == 0 {
			eps = total / 16
		}
		if err := acct.Spend(eps); err != nil && !errors.Is(err, mechanism.ErrBudgetExhausted) {
			t.Fatalf("op %d: %v", i, err)
		}
		liveSpent = append(liveSpent, acct.Spent())
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := evlog.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	walData, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return liveSpent, events, walData
}

// frameBoundaries returns the byte offset after each intact frame
// (boundary[0] = 0 is the empty prefix).
func frameBoundaries(data []byte) []int {
	payloads, _ := store.ScanFrames(data)
	boundaries := []int{0}
	off := 0
	for _, p := range payloads {
		off += 8 + len(p)
		boundaries = append(boundaries, off)
	}
	return boundaries
}

func TestReplayExactnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20160627)) // ICDCS'16 started June 27
	for trial := 0; trial < 4; trial++ {
		total := 0.5 + rng.Float64()*2
		nOps := 20 + rng.Intn(30)
		dir := t.TempDir()
		liveSpent, events, walData := driveAccountant(t, dir, rng, total, nOps)

		// Every op journals exactly one record and emits exactly one
		// budget event, in lockstep: record k <-> event k <-> liveSpent[k].
		boundaries := frameBoundaries(walData)
		if len(boundaries) != nOps+1 {
			t.Fatalf("trial %d: %d frame boundaries for %d ops", trial, len(boundaries)-1, nOps)
		}
		if len(events) != nOps {
			t.Fatalf("trial %d: %d events for %d ops", trial, len(events), nOps)
		}

		for k := 0; k <= nOps; k++ {
			// Truncate the WAL to exactly k records and recover.
			cut := t.TempDir()
			if err := os.WriteFile(filepath.Join(cut, "wal.log"), walData[:boundaries[k]], 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := store.Open(cut, store.NoSync())
			if err != nil {
				t.Fatalf("trial %d k=%d: recovery: %v", trial, k, err)
			}
			st := rec.State()
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovered == live, bitwise.
			if math.Float64bits(st.Budget.Spent) != math.Float64bits(liveSpent[k]) {
				t.Fatalf("trial %d k=%d: recovered spent %v (bits %x) != live %v (bits %x)",
					trial, k, st.Budget.Spent, math.Float64bits(st.Budget.Spent),
					liveSpent[k], math.Float64bits(liveSpent[k]))
			}

			// Recovered == event fold over the matching prefix, bitwise.
			led, err := evlog.FoldBudget(events[:k])
			if err != nil {
				t.Fatalf("trial %d k=%d: fold: %v", trial, k, err)
			}
			if math.Float64bits(led.CumulativeEpsilon) != math.Float64bits(st.Budget.Spent) {
				t.Fatalf("trial %d k=%d: fold cumulative %v != recovered %v (bitwise)",
					trial, k, led.CumulativeEpsilon, st.Budget.Spent)
			}
			if math.Float64bits(led.FinalSpent) != math.Float64bits(st.Budget.Spent) {
				t.Fatalf("trial %d k=%d: fold final spent %v != recovered %v (bitwise)",
					trial, k, led.FinalSpent, st.Budget.Spent)
			}
			if int64(led.Releases) != st.Budget.Releases || int64(led.Refusals) != st.Budget.Refusals {
				t.Fatalf("trial %d k=%d: fold counters %d/%d != recovered %d/%d",
					trial, k, led.Releases, led.Refusals, st.Budget.Releases, st.Budget.Refusals)
			}

			// A restored accountant continues from the recovered state
			// exactly.
			restored, err := mechanism.RestoreAccountant(total, st.Budget)
			if err != nil {
				t.Fatalf("trial %d k=%d: restore: %v", trial, k, err)
			}
			if math.Float64bits(restored.Spent()) != math.Float64bits(liveSpent[k]) {
				t.Fatalf("trial %d k=%d: restored accountant %v != live %v",
					trial, k, restored.Spent(), liveSpent[k])
			}
		}

		// Torn tails between boundaries recover to the preceding
		// boundary's state (sampled, one tear per prefix).
		for k := 1; k <= nOps; k += 5 {
			tearAt := boundaries[k-1] + 1 + rng.Intn(boundaries[k]-boundaries[k-1]-1)
			cut := t.TempDir()
			if err := os.WriteFile(filepath.Join(cut, "wal.log"), walData[:tearAt], 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := store.Open(cut, store.NoSync())
			if err != nil {
				t.Fatalf("trial %d torn k=%d: %v", trial, k, err)
			}
			st := rec.State()
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(st.Budget.Spent) != math.Float64bits(liveSpent[k-1]) {
				t.Fatalf("trial %d torn@%d: recovered %v, want boundary state %v",
					trial, tearAt, st.Budget.Spent, liveSpent[k-1])
			}
		}
	}
}

func TestReplayExactnessWithSnapshots(t *testing.T) {
	// Same lockstep property, but through snapshot rotation: the journal
	// snapshots every 7 records, so recovery is snapshot + WAL tail
	// rather than a pure replay — the cumulative floats must still come
	// out bitwise identical to the live accountant and the event fold.
	rng := rand.New(rand.NewSource(99))
	dir := t.TempDir()
	js, err := store.Open(dir, store.NoSync(), store.SnapshotEvery(7))
	if err != nil {
		t.Fatal(err)
	}
	const total = 2.0
	acct, err := mechanism.NewAccountant(total)
	if err != nil {
		t.Fatal(err)
	}
	ev := evlog.New()
	acct.ObserveEvents(ev)
	if err := acct.ObserveStore(js); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := acct.Spend(rng.Float64() / 5); err != nil && !errors.Is(err, mechanism.ErrBudgetExhausted) {
			t.Fatal(err)
		}
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := store.Open(dir, store.NoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	st := rec.State()
	if math.Float64bits(st.Budget.Spent) != math.Float64bits(acct.Spent()) {
		t.Fatalf("snapshot+WAL recovery %v != live %v (bitwise)", st.Budget.Spent, acct.Spent())
	}

	var buf bytes.Buffer
	if err := ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := evlog.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	led, err := evlog.FoldBudget(events)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(led.CumulativeEpsilon) != math.Float64bits(st.Budget.Spent) {
		t.Fatalf("fold %v != recovered %v (bitwise)", led.CumulativeEpsilon, st.Budget.Spent)
	}
}

func TestRecoveredAccountantEmitsRecoverBaseline(t *testing.T) {
	// A restarted process's event stream starts with budget.recover, so
	// folding the SECOND stream alone still reconciles with the
	// accountant — the property mcs-report -check relies on across
	// restarts.
	st := store.BudgetState{Spent: 0.75, Releases: 3, Refusals: 1}
	acct, err := mechanism.RestoreAccountant(2, st)
	if err != nil {
		t.Fatal(err)
	}
	ev := evlog.New()
	acct.ObserveEvents(ev)
	if err := acct.Spend(0.5); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := evlog.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Name != evlog.EventBudgetRecover {
		t.Fatalf("first event of a recovered stream is %v, want budget.recover", events)
	}
	led, err := evlog.FoldBudget(events)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(led.CumulativeEpsilon) != math.Float64bits(acct.Spent()) {
		t.Fatalf("post-restart fold %v != accountant %v (bitwise)", led.CumulativeEpsilon, acct.Spent())
	}
	if led.Releases != 4 || led.Refusals != 1 {
		t.Fatalf("fold counters %d/%d, want 4/1", led.Releases, led.Refusals)
	}
	if led.FinalSpent != led.CumulativeEpsilon {
		t.Fatalf("FinalSpent %v != CumulativeEpsilon %v", led.FinalSpent, led.CumulativeEpsilon)
	}
}

// TestFailedSnapshotDoesNotRefuseDurableSpend: a spend whose WAL append
// succeeded has happened, even when the snapshot it triggers fails. The
// accountant must accept it, and recovery must reproduce Spent()
// bit-for-bit; the failure shows in SnapshotFailures and clears once a
// later record's snapshot goes through.
func TestFailedSnapshotDoesNotRefuseDurableSpend(t *testing.T) {
	dir := t.TempDir()
	js, err := store.Open(dir, store.NoSync(), store.SnapshotEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty directory under the snapshot's name fails the rename.
	blocker := filepath.Join(dir, "snapshot.json")
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	acct, err := mechanism.NewAccountant(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := acct.ObserveStore(js); err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.1, 0.2} {
		if err := acct.Spend(eps); err != nil {
			t.Fatalf("Spend(%v) refused after its journal append: %v", eps, err)
		}
	}
	if n, err := js.SnapshotFailures(); n != 2 || err == nil {
		t.Fatalf("SnapshotFailures = %d, %v; want 2 and the rename error", n, err)
	}

	// Recovery from the WAL alone, once the obstruction is gone.
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	js, err = store.Open(dir, store.NoSync(), store.SnapshotEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := js.State().Budget.Spent, acct.Spent(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("recovered spent %v, live %v", got, want)
	}

	// The next record snapshots again and clears the failure.
	if err := js.RecordSpend(0.3, acct.Spent()+0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := js.SnapshotFailures(); err != nil {
		t.Fatalf("snapshot still failing after the obstruction was removed: %v", err)
	}
	want := js.State()
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	js, err = store.Open(dir, store.NoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = js.Close() }()
	if got := js.State().Budget.Spent; math.Float64bits(got) != math.Float64bits(want.Budget.Spent) {
		t.Fatalf("recovered spent %v after snapshot, want %v", got, want.Budget.Spent)
	}
}
