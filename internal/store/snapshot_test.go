package store

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// marshalSnapshot is the reference snapshot file: the body and then the
// envelope, each through json.Marshal.
func marshalSnapshot(t testing.TB, lsn uint64, st State) ([]byte, []byte, error) {
	t.Helper()
	body, err := json.Marshal(snapshotBody{LSN: lsn, State: st})
	if err != nil {
		return nil, nil, err
	}
	env, err := json.Marshal(snapshotFile{CRC: crc32.ChecksumIEEE(body), Body: body})
	if err != nil {
		t.Fatalf("envelope of a marshalled body failed: %v", err)
	}
	return body, env, nil
}

// TestSnapshotFileMatchesMarshal: snapshot.json written by a FileStore
// is byte-identical to json.Marshal of the same state, for an empty
// store and after every record kind, across repeated snapshots that
// reuse the encoder's buffer.
func TestSnapshotFileMatchesMarshal(t *testing.T) {
	s, err := Open(t.TempDir(), NoSync(), SnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	check := func(step string) {
		t.Helper()
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(s.Dir(), snapshotFileName))
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := marshalSnapshot(t, s.LSN(), s.State())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot.json\n%s\nwant\n%s", step, got, want)
		}
	}
	check("empty")
	records := []func() error{
		func() error { return s.RecordCampaignStart(4, -7) },
		func() error { return s.RecordRoundBegin(0) },
		func() error { return s.RecordSpend(1e-7, 1e-7) },
		func() error { return s.RecordSkill("w<1>&\"x\"", 0.875) },
		func() error { return s.RecordSkill("w0", 1) },
		func() error { return s.RecordRoundComplete(0, 3e21, []string{"w0", "w<1>&\"x\""}) },
		func() error { return s.RecordRoundComplete(1, 0, nil) },
		func() error { return s.RecordRoundComplete(2, 12.5, []string{}) },
		func() error { return s.RecordRefuse(0.5, 1e-7) },
		func() error { return s.RecordRestore(0.1, 3, 2) },
	}
	for i, rec := range records {
		if err := rec(); err != nil {
			t.Fatal(err)
		}
		check(string(rune('a' + i)))
	}
}

// FuzzSnapshotEncode holds the hand encoder to json.Marshal: the body
// bytes are identical for any state, worker IDs that need escaping
// included, and a state json.Marshal rejects (a NaN or infinite float)
// is an error that writes no file at all.
func FuzzSnapshotEncode(f *testing.F) {
	f.Add(uint64(1), "w01", "w02", 0.5, 0.87, 33.0, int64(2), 7, int64(42))
	f.Add(uint64(0), "", "\"\\", 0.0, 1.0, -0.0, int64(0), 0, int64(0))
	f.Add(uint64(math.MaxUint64), "<a&b>", "\x00\x1f\x7f", 1e-7, 1e21, 123456789.125, int64(-1), -3, int64(math.MinInt64))
	f.Add(uint64(9), "héllo  ", "\xff\xfe bad utf8", 5e-324, math.MaxFloat64, 1e20, int64(1), 1, int64(1))
	f.Add(uint64(3), "w", "v", math.NaN(), 0.5, 1.0, int64(1), 1, int64(1))
	f.Add(uint64(3), "w", "v", 0.5, math.Inf(1), 1.0, int64(1), 1, int64(1))
	f.Add(uint64(3), "w", "v", 0.5, 0.5, math.Inf(-1), int64(1), 1, int64(1))
	var enc snapshotEncoder
	f.Fuzz(func(t *testing.T, lsn uint64, w1, w2 string, spent, acc, payment float64, releases int64, round int, seed int64) {
		st := State{
			Budget: BudgetState{Spent: spent, Releases: releases, Refusals: releases / 2},
			Skills: map[string]float64{w1: acc, w2: spent},
			Campaign: CampaignState{
				Rounds: round, Seed: seed, NextRound: round + 1, TotalPayment: payment + spent,
				Completed: []CompletedRound{
					{Round: round, Payment: payment, Workers: []string{w1, w2}},
					{Round: round - 1, Payment: acc},
				},
			},
		}
		want, _, merr := marshalSnapshot(t, lsn, st)
		got, err := enc.body(lsn, &st)
		if merr != nil {
			if err == nil {
				t.Fatalf("json.Marshal failed (%v) but the encoder did not", merr)
			}
			dir := t.TempDir()
			if err := enc.writeSnapshot(filepath.Join(dir, snapshotFileName), lsn, &st); err == nil {
				t.Fatal("writeSnapshot of an unencodable state succeeded")
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("failed snapshot left %d files behind", len(left))
			}
			return
		}
		if err != nil {
			t.Fatalf("encoder failed where json.Marshal did not: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder body\n%s\njson.Marshal\n%s", got, want)
		}
	})
}
