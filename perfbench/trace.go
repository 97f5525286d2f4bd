package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dphsrc/dphsrc/internal/store"
	"github.com/dphsrc/dphsrc/internal/telemetry"
)

// span is one timed interval of the traced run. Round is the measured
// round it belongs to (warm-up rounds are negative); Parent is the ID
// of the enclosing span, 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Round  int     `json:"round"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps the traced run's spans in memory; writeFile exports them
// once at the end. The nil tracer records nothing, which is how the
// untraced run measures end-to-end metrics with tracing off.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// round and roundSpan tag spans opened by decorators, which do not
	// know which round the platform is in: they belong to the round the
	// load loop is running.
	round     atomic.Int64
	roundSpan atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, round int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Round: round, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// reserve opens a span that finish closes; its ID can parent spans
// recorded before it ends.
func (t *tracer) reserve(name string, parent, round int) int {
	now := time.Now()
	return t.add(name, parent, round, now, now)
}

// finish closes a reserved span at end.
func (t *tracer) finish(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Seconds()
}

// setRound makes round and its root span the parent of decorator spans.
func (t *tracer) setRound(round, spanID int) {
	if t == nil {
		return
	}
	t.round.Store(int64(round))
	t.roundSpan.Store(int64(spanID))
}

// timed opens a decorator span in the current round; the returned func
// closes it.
func (t *tracer) timed(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		t.add(name, int(t.roundSpan.Load()), int(t.round.Load()), start, time.Now())
	}
}

// perRound sums the durations of the named spans over measured rounds
// (round >= 0) and divides by the number of measured rounds.
func (t *tracer) perRound(name string, rounds int) float64 {
	if t == nil || rounds == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name && s.Round >= 0 && s.Round < rounds {
			sum += s.End - s.Start
		}
	}
	return sum / float64(rounds)
}

// count returns how many spans of the named kind measured rounds hold.
func (t *tracer) count(name string, rounds int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.Round >= 0 && s.Round < rounds {
			n++
		}
	}
	return n
}

// platformPhases names the platform's own phase spans (its Tracer's
// round children) as this benchmark's layer stages.
var platformPhases = map[string]string{
	"collect-bids": "protocol.collect",
	"auction":      "protocol.auction",
	"labels":       "protocol.labels",
	"aggregate":    "crowd.aggregate",
}

// importPlatform adds the platform tracer's phase spans. The platform
// records one root "round" span per round attempt, in round order;
// first is the platform round index of measured round 0, and
// roundSpans[i] is the load loop's span of measured round i.
func (t *tracer) importPlatform(pt *telemetry.Tracer, first int, roundSpans []int) error {
	var buf bytes.Buffer
	if err := pt.WriteJSON(&buf); err != nil {
		return err
	}
	var doc struct {
		Spans []struct {
			Name     string `json:"name"`
			Start    int64  `json:"start_unix_ns"`
			Duration int64  `json:"duration_ns"`
			Children []struct {
				Name     string `json:"name"`
				Start    int64  `json:"start_unix_ns"`
				Duration int64  `json:"duration_ns"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("decoding platform trace: %w", err)
	}
	rounds := doc.Spans[:0]
	for _, s := range doc.Spans {
		if s.Name == "round" {
			rounds = append(rounds, s)
		}
	}
	sort.SliceStable(rounds, func(i, j int) bool { return rounds[i].Start < rounds[j].Start })
	for i, parent := range roundSpans {
		if first+i >= len(rounds) {
			return fmt.Errorf("platform traced %d rounds, want at least %d", len(rounds), first+len(roundSpans))
		}
		for _, c := range rounds[first+i].Children {
			name, ok := platformPhases[c.Name]
			if !ok {
				continue
			}
			start := time.Unix(0, c.Start)
			t.add(name, parent, i, start, start.Add(time.Duration(c.Duration)))
		}
	}
	return nil
}

// writeFile exports every span as one JSON document.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// journal is the traced run's decorator on the durable state
// journals: the accountant's BudgetStore, the skill store's
// SkillStore and the platform's CampaignStore all write through it,
// and each record becomes one store.append span.
type journal struct {
	fs *store.FileStore
	tr *tracer
}

var (
	_ store.BudgetStore   = (*journal)(nil)
	_ store.SkillStore    = (*journal)(nil)
	_ store.CampaignStore = (*journal)(nil)
)

func (j *journal) RecordRestore(spent float64, releases, refusals int64) error {
	defer j.tr.timed("store.append")()
	return j.fs.RecordRestore(spent, releases, refusals)
}

func (j *journal) RecordSpend(eps, spent float64) error {
	defer j.tr.timed("store.append")()
	return j.fs.RecordSpend(eps, spent)
}

func (j *journal) RecordRefuse(eps, spent float64) error {
	defer j.tr.timed("store.append")()
	return j.fs.RecordRefuse(eps, spent)
}

func (j *journal) RecordSkill(workerID string, accuracy float64) error {
	defer j.tr.timed("store.append")()
	return j.fs.RecordSkill(workerID, accuracy)
}

func (j *journal) RecordCampaignStart(rounds int, seed int64) error {
	defer j.tr.timed("store.append")()
	return j.fs.RecordCampaignStart(rounds, seed)
}

func (j *journal) RecordRoundBegin(round int) error {
	defer j.tr.timed("store.append")()
	return j.fs.RecordRoundBegin(round)
}

func (j *journal) RecordRoundComplete(round int, payment float64, paidWorkers []string) error {
	defer j.tr.timed("store.append")()
	return j.fs.RecordRoundComplete(round, payment, paidWorkers)
}
