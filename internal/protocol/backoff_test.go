package protocol

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/crowd"
)

// TestBackoffEqualJitterRange is the regression test for the jitter
// collapse bug: the old full-range scaling (1 - Jitter*rng.Float64())
// could shrink any wait to the 1ms floor at Jitter 1. Equal jitter must
// keep every wait inside [d/2, d] of its pre-jitter value.
func TestBackoffEqualJitterRange(t *testing.T) {
	rp := RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Jitter:      1,
	}
	rng := rand.New(rand.NewSource(9))
	for attempt := 2; attempt <= 6; attempt++ {
		pre := 100 * time.Millisecond << uint(attempt-2)
		if pre > rp.MaxBackoff {
			pre = rp.MaxBackoff
		}
		for trial := 0; trial < 200; trial++ {
			w := rp.backoff(attempt, rng)
			if w < pre/2 || w > pre {
				t.Fatalf("attempt %d: wait %v outside equal-jitter range [%v, %v]", attempt, w, pre/2, pre)
			}
		}
	}
}

// TestBackoffPreservesExponentialSpacing: with full jitter the shortest
// possible wait for attempt k+1 equals the longest for attempt k, so
// successive backoffs never regress below the previous pre-jitter tier.
func TestBackoffPreservesExponentialSpacing(t *testing.T) {
	rp := RetryPolicy{BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Minute, Jitter: 1}
	rng := rand.New(rand.NewSource(3))
	for attempt := 2; attempt <= 7; attempt++ {
		pre := 50 * time.Millisecond << uint(attempt-2)
		lo := time.Duration(1<<63 - 1)
		for trial := 0; trial < 300; trial++ {
			if w := rp.backoff(attempt, rng); w < lo {
				lo = w
			}
		}
		if lo < pre/2 {
			t.Fatalf("attempt %d: observed minimum %v below half the tier %v", attempt, lo, pre)
		}
	}
}

func TestBackoffNoJitterIsDeterministic(t *testing.T) {
	rp := RetryPolicy{BaseBackoff: 80 * time.Millisecond, MaxBackoff: 200 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{2, 80 * time.Millisecond},
		{3, 160 * time.Millisecond},
		{4, 200 * time.Millisecond}, // capped
		{5, 200 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := rp.backoff(tc.attempt, rng); got != tc.want {
			t.Errorf("attempt %d: backoff %v, want %v", tc.attempt, got, tc.want)
		}
	}
}

func TestBackoffFloorAndDefaults(t *testing.T) {
	// Sub-millisecond configurations clamp to the 1ms floor.
	rp := RetryPolicy{BaseBackoff: time.Nanosecond, MaxBackoff: time.Microsecond, Jitter: 1}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		if w := rp.backoff(2, rng); w < time.Millisecond {
			t.Fatalf("wait %v below the 1ms floor", w)
		}
	}
	// Zero-valued policy falls back to the documented defaults.
	def := RetryPolicy{}
	if got := def.backoff(2, rng); got != 100*time.Millisecond {
		t.Errorf("default base backoff %v, want 100ms", got)
	}
	if got := def.backoff(50, rng); got != 2*time.Second {
		t.Errorf("overflow-guarded backoff %v, want the 2s default cap", got)
	}
}

// TestRetryWaitsPinned pins the jitter waits of a 4-attempt retry for a
// fixed worker ID, and checks that Participate, which builds its jitter
// stream only on the first retry, sleeps at least those waits between
// its dials.
func TestRetryWaitsPinned(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 4, BaseBackoff: 20 * time.Millisecond, MaxBackoff: time.Second, Jitter: 1}
	want := []time.Duration{10099903, 28203998, 66314616}
	rng := rp.jitterRNG("w-pinned")
	for i, w := range want {
		if got := rp.backoff(i+2, rng); got != w {
			t.Fatalf("attempt %d: backoff %v, want %v", i+2, got, w)
		}
	}

	d := &refusingDialer{}
	_, err := Participate(context.Background(), "127.0.0.1:1", WorkerConfig{
		ID: "w-pinned", Bundle: []int{0}, Cost: 1,
		Labels: func(int) crowd.Label { return 1 },
		Dialer: d, Retry: rp,
	})
	if err == nil {
		t.Fatal("Participate succeeded against a refusing dialer")
	}
	if len(d.at) != rp.MaxAttempts {
		t.Fatalf("%d dials, want %d", len(d.at), rp.MaxAttempts)
	}
	for i, w := range want {
		if gap := d.at[i+1].Sub(d.at[i]); gap < w {
			t.Fatalf("wait before attempt %d = %v, below the pinned %v", i+2, gap, w)
		}
	}
}

// refusingDialer fails every dial and records when each was made.
type refusingDialer struct{ at []time.Time }

func (d *refusingDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	d.at = append(d.at, time.Now())
	return nil, errors.New("refused")
}
