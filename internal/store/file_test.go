package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// reopen closes the store and opens the same directory again.
func reopen(t *testing.T, s *FileStore, opts ...FileOption) *FileStore {
	t.Helper()
	dir := s.Dir()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

func TestFileStoreRecoversAllRecordKinds(t *testing.T) {
	s, err := Open(t.TempDir(), NoSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordCampaignStart(5, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRoundBegin(0); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSpend(0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSkill("w01", 0.87); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRoundComplete(0, 33, []string{"w01", "w03"}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRoundBegin(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRefuse(0.7, 0.5); err != nil {
		t.Fatal(err)
	}
	want := s.State()

	s2 := reopen(t, s, NoSync())
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	got := s2.State()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state\n %+v\nwant\n %+v", got, want)
	}
	if got.Campaign.NextRound != 2 {
		t.Errorf("NextRound = %d, want 2 (round 1 begun, never completed)", got.Campaign.NextRound)
	}
	if got.Budget.Releases != 1 || got.Budget.Refusals != 1 {
		t.Errorf("counters = %d/%d, want 1/1", got.Budget.Releases, got.Budget.Refusals)
	}
	paid := got.PaidWorkerRounds()
	if !reflect.DeepEqual(paid["w01"], []int{0}) || !reflect.DeepEqual(paid["w03"], []int{0}) {
		t.Errorf("PaidWorkerRounds = %v", paid)
	}
}

func TestFileStoreSnapshotRotation(t *testing.T) {
	// Cadence 3: records 1..3 fold into a snapshot, 4..5 stay in the
	// WAL; recovery must replay WAL-over-snapshot to the same state.
	s, err := Open(t.TempDir(), NoSync(), SnapshotEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	spent := 0.0
	for i := 0; i < 5; i++ {
		spent += 0.25
		if err := s.RecordSpend(0.25, spent); err != nil {
			t.Fatal(err)
		}
	}
	want := s.State()
	if got := s.LSN(); got != 5 {
		t.Fatalf("LSN = %d, want 5", got)
	}
	// The snapshot fired at record 3, so only 2 records remain journaled.
	if _, err := os.Stat(filepath.Join(s.Dir(), snapshotFileName)); err != nil {
		t.Fatalf("snapshot missing after cadence: %v", err)
	}

	s2 := reopen(t, s, NoSync(), SnapshotEvery(3))
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := s2.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state %+v, want %+v", got, want)
	}
	if got := s2.LSN(); got != 5 {
		t.Errorf("recovered LSN = %d, want 5", got)
	}
}

func TestFileStoreCrashBetweenSnapshotAndReset(t *testing.T) {
	// The dangerous interleaving: snapshot renamed, WAL never reset
	// (crash in between). Stale WAL frames now duplicate state the
	// snapshot already folded; LSN-skip replay must not double-apply.
	dir := t.TempDir()
	s, err := Open(dir, NoSync(), SnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSpend(0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSpend(0.5, 1.0); err != nil {
		t.Fatal(err)
	}
	want := s.State()
	// Write the snapshot by hand WITHOUT resetting the WAL — exactly the
	// on-disk image a crash between the two steps leaves.
	var enc snapshotEncoder
	if err := enc.writeSnapshot(filepath.Join(dir, snapshotFileName), s.LSN(), &want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, NoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	got := s2.State()
	if got.Budget.Spent != 1.0 || got.Budget.Releases != 2 {
		t.Fatalf("double-applied stale WAL: spent=%v releases=%d", got.Budget.Spent, got.Budget.Releases)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state %+v, want %+v", got, want)
	}
}

func TestFileStoreTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, NoSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSpend(0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the log: append half of a valid frame.
	rec, err := EncodeRecord(Record{LSN: 2, Kind: KindBudgetSpend, Eps: 0.5, Spent: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendFrame(nil, rec)
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, NoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if s2.RecoveredTornBytes == 0 {
		t.Error("torn tail not reported")
	}
	got := s2.State()
	if got.Budget.Spent != 0.5 || got.Budget.Releases != 1 {
		t.Fatalf("recovered past the tear: %+v", got.Budget)
	}
	// The store keeps working after the repair, and the next record
	// takes the LSN after the surviving prefix.
	if err := s2.RecordSpend(0.25, 0.75); err != nil {
		t.Fatal(err)
	}
	if got := s2.LSN(); got != 2 {
		t.Errorf("LSN after repair = %d, want 2", got)
	}
}

func TestFileStoreCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, NoSync(), SnapshotEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSpend(0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, snapshotFileName)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the body; the CRC check must catch it.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x20
	if err := os.WriteFile(snap, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, NoSync()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot opened: err=%v", err)
	}
}

func TestFileStoreReplayVerifiesSpendFold(t *testing.T) {
	// A spend record whose journaled cumulative disagrees with the
	// replayed fold is corruption, not data.
	dir := t.TempDir()
	w, _, err := OpenWAL(filepath.Join(dir, walFileName), false)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []Record{
		{Kind: KindBudgetSpend, Eps: 0.5, Spent: 0.5},
		{Kind: KindBudgetSpend, Eps: 0.5, Spent: 2.0}, // fold says 1.0
	} {
		r.LSN = uint64(i + 1)
		payload, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, NoSync()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inconsistent spend fold opened: err=%v", err)
	}
}

func TestFileStoreClosedErrors(t *testing.T) {
	s, err := Open(t.TempDir(), NoSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSpend(0.1, 0.1); !errors.Is(err, ErrClosed) {
		t.Errorf("record on closed store: %v", err)
	}
	if err := s.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Errorf("snapshot on closed store: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestMemStoreMatchesFileStore(t *testing.T) {
	// The two backends fold the same record sequence to the same state.
	mem := NewMemStore()
	file, err := Open(t.TempDir(), NoSync(), SnapshotEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	ops := []func(BudgetStore) error{
		func(b BudgetStore) error { return b.RecordSpend(0.125, 0.125) },
		func(b BudgetStore) error { return b.RecordRefuse(9, 0.125) },
		func(b BudgetStore) error { return b.RecordSpend(0.25, 0.375) },
	}
	for i, op := range ops {
		if err := op(mem); err != nil {
			t.Fatalf("op %d on mem: %v", i, err)
		}
		if err := op(file); err != nil {
			t.Fatalf("op %d on file: %v", i, err)
		}
	}
	if err := mem.RecordSkill("w", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := file.RecordSkill("w", 0.9); err != nil {
		t.Fatal(err)
	}
	if m, f := mem.State(), file.State(); !reflect.DeepEqual(m, f) {
		t.Fatalf("backends diverged:\nmem %+v\nfile %+v", m, f)
	}
}

func TestFileStoreManyRecordsAcrossManyReopens(t *testing.T) {
	// Soak: interleave records, snapshots, and reopens; cumulative state
	// must come out exact.
	dir := t.TempDir()
	var (
		spent float64
		lsn   uint64
	)
	for gen := 0; gen < 4; gen++ {
		s, err := Open(dir, NoSync(), SnapshotEvery(5))
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if got := s.State().Budget.Spent; got != spent {
			t.Fatalf("gen %d recovered spent %v, want %v", gen, got, spent)
		}
		for i := 0; i < 13; i++ {
			eps := 1.0 / float64(3+gen+i) // deliberately non-dyadic
			spent += eps
			if err := s.RecordSpend(eps, spent); err != nil {
				t.Fatal(err)
			}
			lsn++
		}
		if got := s.LSN(); got != lsn {
			t.Fatalf("gen %d LSN %d, want %d", gen, got, lsn)
		}
		if err := s.RecordSkill(fmt.Sprintf("w%d", gen), 0.5+float64(gen)/10); err != nil {
			t.Fatal(err)
		}
		lsn++
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, NoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	st := s.State()
	if st.Budget.Spent != spent {
		t.Errorf("final spent %v, want %v (bitwise)", st.Budget.Spent, spent)
	}
	if st.Budget.Releases != 4*13 {
		t.Errorf("releases %d, want %d", st.Budget.Releases, 4*13)
	}
	if len(st.Skills) != 4 {
		t.Errorf("skills %v", st.Skills)
	}
}
