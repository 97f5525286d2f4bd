package faultnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// sink records every write delivered to the "network" without blocking.
type sink struct {
	mu     sync.Mutex
	frames [][]byte
	closed bool
}

func (s *sink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = append(s.frames, append([]byte(nil), p...))
	return len(p), nil
}

// sinkConn adapts sink to net.Conn.
type sinkConn struct {
	net.Conn // nil; only Write/Close are exercised
	s        *sink
}

func (c sinkConn) Write(p []byte) (int, error) { return c.s.Write(p) }
func (c sinkConn) Close() error {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.s.closed = true
	return nil
}

// deliver pushes n numbered frames through a wrapped conn and returns
// what reached the sink plus the per-frame write errors.
func deliver(t *testing.T, in *Injector, key string, n int) (*sink, []error) {
	t.Helper()
	s := &sink{}
	conn := in.Conn(sinkConn{s: s}, key)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		_, errs[i] = conn.Write([]byte{byte(i), byte(i >> 8), 0xAA})
	}
	return s, errs
}

func TestPlanValidation(t *testing.T) {
	if _, err := New(Plan{DropRate: -0.1}); !errors.Is(err, ErrBadPlan) {
		t.Errorf("negative rate: got %v", err)
	}
	if _, err := New(Plan{DropRate: 0.6, DelayRate: 0.6}); !errors.Is(err, ErrBadPlan) {
		t.Errorf("rates summing over 1: got %v", err)
	}
	if _, err := New(Plan{DropRate: 0.5, CorruptRate: 0.5}); err != nil {
		t.Errorf("rates summing to exactly 1 should be valid: %v", err)
	}
}

func TestZeroPlanIsPassthrough(t *testing.T) {
	in, err := New(Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, errs := deliver(t, in, "k", 50)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if len(s.frames) != 50 {
		t.Fatalf("delivered %d of 50 frames", len(s.frames))
	}
}

func TestDeterministicPerSeedAndKey(t *testing.T) {
	plan := Plan{Seed: 42, DropRate: 0.3, DuplicateRate: 0.2, CorruptRate: 0.2, TruncateRate: 0.1}
	run := func() [][]byte {
		in, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := deliver(t, in, "worker-07#1", 40)
		return s.frames
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("frame counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("frame %d differs: %x vs %x", i, a[i], b[i])
		}
	}
	// A different key must (with these rates, over 40 frames) diverge.
	in, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := deliver(t, in, "worker-08#1", 40)
	same := len(c.frames) == len(a)
	if same {
		for i := range a {
			if !bytes.Equal(a[i], c.frames[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different keys produced identical schedules")
	}
}

func TestDropRateDrops(t *testing.T) {
	in, err := New(Plan{Seed: 7, DropRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, errs := deliver(t, in, "k", 10)
	if len(s.frames) != 0 {
		t.Fatalf("%d frames leaked through a 100%% drop plan", len(s.frames))
	}
	for _, err := range errs {
		if err != nil {
			t.Fatalf("drop must report success to the writer, got %v", err)
		}
	}
}

func TestDuplicateDelivers(t *testing.T) {
	in, err := New(Plan{Seed: 7, DuplicateRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := deliver(t, in, "k", 5)
	if len(s.frames) != 10 {
		t.Fatalf("delivered %d frames, want 10 (each doubled)", len(s.frames))
	}
	if !bytes.Equal(s.frames[0], s.frames[1]) {
		t.Error("duplicate pair differs")
	}
}

func TestTruncateClosesAndErrors(t *testing.T) {
	in, err := New(Plan{Seed: 7, TruncateRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{}
	conn := in.Conn(sinkConn{s: s}, "k")
	if _, err := conn.Write([]byte("hello world")); err == nil {
		t.Error("truncate must surface a write error")
	}
	if !s.closed {
		t.Error("truncate must close the connection")
	}
	for _, f := range s.frames {
		if len(f) >= len("hello world") {
			t.Errorf("truncated frame has %d bytes, want a strict prefix", len(f))
		}
	}
}

func TestCorruptFlipsOneByte(t *testing.T) {
	in, err := New(Plan{Seed: 7, CorruptRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	orig := []byte("abcdefgh")
	s := &sink{}
	conn := in.Conn(sinkConn{s: s}, "k")
	if _, err := conn.Write(append([]byte(nil), orig...)); err != nil {
		t.Fatal(err)
	}
	if len(s.frames) != 1 {
		t.Fatalf("delivered %d frames", len(s.frames))
	}
	diff := 0
	for i := range orig {
		if s.frames[0][i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes differ, want exactly 1", diff)
	}
}

func TestDelayStallsButDelivers(t *testing.T) {
	in, err := New(Plan{Seed: 7, DelayRate: 1, Delay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{}
	conn := in.Conn(sinkConn{s: s}, "k")
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := conn.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.frames) != 5 {
		t.Fatalf("delivered %d of 5 delayed frames", len(s.frames))
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Errorf("delays exceeded the plan's bound: %v", time.Since(start))
	}
}

// TestDialerWrapsRealConnections runs a tiny echo exchange over
// loopback TCP through a fault-free dialer to prove the plumbing holds
// end to end for reads and writes.
func TestDialerWrapsRealConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()

	in, err := New(Plan{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := &Dialer{Injector: in, Key: "w"}
	conn, err := d.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("ping")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo mismatch: %q", buf)
	}
}

// TestListenerForwardsSetDeadline: a past deadline set through the
// wrapper wakes a blocked Accept with a timeout, and a wrapped listener
// without deadlines reports an error rather than ignoring the call.
func TestListenerForwardsSetDeadline(t *testing.T) {
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tln.Close()
	in, err := New(Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln := in.Listener(tln).(interface {
		net.Listener
		SetDeadline(time.Time) error
	})
	accepted := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		accepted <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := ln.SetDeadline(time.Unix(1, 0)); err != nil {
		t.Fatalf("SetDeadline on a TCP listener: %v", err)
	}
	select {
	case err := <-accepted:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("Accept after a past deadline = %v, want a timeout", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("past deadline did not wake Accept")
	}

	opaque := in.Listener(struct{ net.Listener }{tln}).(interface{ SetDeadline(time.Time) error })
	if err := opaque.SetDeadline(time.Time{}); err == nil {
		t.Fatal("SetDeadline on a listener without deadlines succeeded")
	}
}
