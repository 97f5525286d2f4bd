package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// BudgetState is the accountant's durable core: the exact cumulative
// spent value and the release/refusal counters. Total is configuration,
// not state, so it is not persisted.
type BudgetState struct {
	Spent    float64 `json:"spent"`
	Releases int64   `json:"releases"`
	Refusals int64   `json:"refusals"`
}

// CompletedRound is one finished campaign round as journaled by
// round.complete.
type CompletedRound struct {
	Round   int      `json:"round"`
	Payment float64  `json:"payment"`
	Workers []string `json:"workers,omitempty"`
}

// CampaignState tracks campaign progress across restarts. NextRound is
// one past the highest *begun* round — a round that began but never
// completed is skipped on resume, because its payments may have landed
// before the crash.
type CampaignState struct {
	Rounds       int              `json:"rounds"`
	Seed         int64            `json:"seed"`
	NextRound    int              `json:"next_round"`
	TotalPayment float64          `json:"total_payment"`
	Completed    []CompletedRound `json:"completed,omitempty"`
}

// State is everything the platform recovers after a restart.
type State struct {
	Budget   BudgetState        `json:"budget"`
	Skills   map[string]float64 `json:"skills,omitempty"`
	Campaign CampaignState      `json:"campaign"`
}

// Clone returns a deep copy safe to hand outside the store's lock.
func (s State) Clone() State {
	out := s
	if s.Skills != nil {
		out.Skills = make(map[string]float64, len(s.Skills))
		for k, v := range s.Skills {
			out.Skills[k] = v
		}
	}
	if s.Campaign.Completed != nil {
		out.Campaign.Completed = make([]CompletedRound, len(s.Campaign.Completed))
		for i, c := range s.Campaign.Completed {
			out.Campaign.Completed[i] = c
			if c.Workers != nil {
				out.Campaign.Completed[i].Workers = append([]string(nil), c.Workers...)
			}
		}
	}
	return out
}

// apply folds one journaled record into the state. verify makes the
// budget fold self-checking: a spend record carries the cumulative
// total the live accountant computed, and replay — doing the same
// addition on the same prior value — must reproduce it bit-for-bit.
// A mismatch means the journal and the state diverged (corruption or
// a skipped record) and recovery must not silently continue.
//
//mcslint:allow MCS-DUR002 apply is the replay fold itself: every mutation here materializes an already-journaled record
func (s *State) apply(r Record, verify bool) error {
	switch r.Kind {
	case KindBudgetRestore:
		s.Budget.Spent = r.Spent
		s.Budget.Releases = r.Releases
		s.Budget.Refusals = r.Refusals
	case KindBudgetSpend:
		next := s.Budget.Spent + r.Eps
		if verify && next != r.Spent { //mcslint:allow MCS-FLT001 replay exactness is the contract: the fold repeats the accountant's additions, so any drift at all is corruption
			return fmt.Errorf("%w: spend lsn=%d replays to %v, journal says %v",
				ErrCorrupt, r.LSN, next, r.Spent)
		}
		s.Budget.Spent = r.Spent
		s.Budget.Releases++
	case KindBudgetRefuse:
		s.Budget.Refusals++
	case KindSkillUpdate:
		if s.Skills == nil {
			s.Skills = make(map[string]float64)
		}
		s.Skills[r.Worker] = r.Acc
	case KindCampaignStart:
		s.Campaign.Rounds = r.Rounds
		s.Campaign.Seed = r.Seed
	case KindRoundBegin:
		if r.Round >= s.Campaign.NextRound {
			s.Campaign.NextRound = r.Round + 1
		}
	case KindRoundComplete:
		s.Campaign.TotalPayment += r.Payment
		var workers []string
		if r.Workers != nil {
			workers = append([]string(nil), r.Workers...)
		}
		s.Campaign.Completed = append(s.Campaign.Completed, CompletedRound{
			Round:   r.Round,
			Payment: r.Payment,
			Workers: workers,
		})
	default:
		return fmt.Errorf("%w: unknown record kind %q at lsn=%d", ErrCorrupt, r.Kind, r.LSN)
	}
	return nil
}

// PaidWorkerRounds inverts Completed into worker → rounds paid, with
// rounds sorted ascending. Used by resume regression tests to prove a
// restart never pays the same round twice.
func (s State) PaidWorkerRounds() map[string][]int {
	out := make(map[string][]int)
	for _, c := range s.Campaign.Completed {
		for _, w := range c.Workers {
			out[w] = append(out[w], c.Round)
		}
	}
	for _, rounds := range out {
		sort.Ints(rounds)
	}
	return out
}

// snapshotBody is the CRC-protected content of a snapshot file: the
// folded state plus the LSN of the last record it includes.
type snapshotBody struct {
	LSN   uint64 `json:"lsn"`
	State State  `json:"state"`
}

// snapshotFile is the on-disk envelope: the body bytes are CRC32'd so
// a torn snapshot write is detected rather than loaded. writeSnapshot
// renders it by hand, byte-identical to json.Marshal of this type.
type snapshotFile struct {
	CRC  uint32          `json:"crc32"`
	Body json.RawMessage `json:"body"`
}

// snapshotEncoder renders snapshot bodies into one buffer reused across
// snapshots. The body grows with the campaign's completed-round
// history, so a fresh buffer per snapshot would leave a copy of that
// history for the collector every SnapshotEvery records.
type snapshotEncoder struct {
	buf  []byte
	keys []string
	// bad records a NaN or infinite float met during the current body.
	bad bool
}

// body returns the bytes of json.Marshal(snapshotBody{lsn, *st}),
// aliasing the encoder's buffer until the next call. A NaN or infinite
// float is an error, as it is for json.Marshal.
func (e *snapshotEncoder) body(lsn uint64, st *State) ([]byte, error) {
	e.bad = false
	b := append(e.buf[:0], `{"lsn":`...)
	b = strconv.AppendUint(b, lsn, 10)
	b = append(b, `,"state":{"budget":{"spent":`...)
	b = e.float(b, st.Budget.Spent)
	b = append(b, `,"releases":`...)
	b = strconv.AppendInt(b, st.Budget.Releases, 10)
	b = append(b, `,"refusals":`...)
	b = strconv.AppendInt(b, st.Budget.Refusals, 10)
	b = append(b, '}')
	if len(st.Skills) > 0 {
		// encoding/json writes map keys in sorted order.
		e.keys = e.keys[:0]
		for k := range st.Skills {
			e.keys = append(e.keys, k)
		}
		sort.Strings(e.keys)
		b = append(b, `,"skills":{`...)
		for i, k := range e.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = e.float(b, st.Skills[k])
		}
		b = append(b, '}')
	}
	c := &st.Campaign
	b = append(b, `,"campaign":{"rounds":`...)
	b = strconv.AppendInt(b, int64(c.Rounds), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, c.Seed, 10)
	b = append(b, `,"next_round":`...)
	b = strconv.AppendInt(b, int64(c.NextRound), 10)
	b = append(b, `,"total_payment":`...)
	b = e.float(b, c.TotalPayment)
	if len(c.Completed) > 0 {
		b = append(b, `,"completed":[`...)
		for i := range c.Completed {
			r := &c.Completed[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"round":`...)
			b = strconv.AppendInt(b, int64(r.Round), 10)
			b = append(b, `,"payment":`...)
			b = e.float(b, r.Payment)
			if len(r.Workers) > 0 {
				b = append(b, `,"workers":[`...)
				for j, w := range r.Workers {
					if j > 0 {
						b = append(b, ',')
					}
					b = appendString(b, w)
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, "}}}"...)
	e.buf = b
	if e.bad {
		return nil, errors.New("store: snapshot: unsupported float value (NaN or Inf)")
	}
	return b, nil
}

// float appends f as encoding/json renders a float64: shortest
// round-trip digits, exponent form outside [1e-6, 1e21) with a
// one-digit negative exponent unpadded.
func (e *snapshotEncoder) float(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string exactly as json.Marshal
// renders it. Worker IDs are plain ASCII in practice and are copied
// through; anything encoding/json would escape (quotes, backslashes,
// <>&, control bytes, non-ASCII) goes through json.Marshal itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// writeSnapshot atomically replaces path with the snapshot of st at
// lsn: write to a temp file in the same directory, fsync, rename. A
// crash at any point leaves either the old snapshot or the new one,
// never a half-written file under the real name. The envelope
// {"crc32":N,"body":BODY} is written around the body bytes rather than
// marshalled a second time; nothing is written when the body cannot
// be encoded.
func (e *snapshotEncoder) writeSnapshot(path string, lsn uint64, st *State) error {
	body, err := e.body(lsn, st)
	if err != nil {
		return err
	}
	var head [32]byte
	h := append(head[:0], `{"crc32":`...)
	h = strconv.AppendUint(h, uint64(crc32.ChecksumIEEE(body)), 10)
	h = append(h, `,"body":`...)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	for _, part := range [][]byte{h, body, []byte("}")} {
		if _, err := tmp.Write(part); err != nil {
			_ = tmp.Close()
			_ = os.Remove(tmpName)
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	// Sync the directory so the rename itself is durable.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// readSnapshot loads and verifies the snapshot at path. A missing file
// is the empty state at LSN 0; a present-but-corrupt file is an error
// — unlike a torn WAL tail, a bad snapshot has no safe prefix to fall
// back to.
func readSnapshot(path string) (uint64, State, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, State{}, nil
	}
	if err != nil {
		return 0, State{}, err
	}
	var env snapshotFile
	if err := json.Unmarshal(data, &env); err != nil {
		return 0, State{}, fmt.Errorf("%w: snapshot envelope: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(env.Body) != env.CRC {
		return 0, State{}, fmt.Errorf("%w: snapshot crc mismatch", ErrCorrupt)
	}
	var body snapshotBody
	if err := json.Unmarshal(env.Body, &body); err != nil {
		return 0, State{}, fmt.Errorf("%w: snapshot body: %v", ErrCorrupt, err)
	}
	return body.LSN, body.State, nil
}
