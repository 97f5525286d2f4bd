package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// pipeListener is an in-memory net.Listener: DialContext hands the
// server half of a net.Pipe to Accept, so a round of N bidders runs N
// in-process sessions without opening a socket or a file descriptor.
// It implements SetDeadline the way net.TCPListener does, which is
// what lets the platform close a bid window without a self-connection.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once

	mu  sync.Mutex
	dl  chan struct{} // closed when the current deadline passes; nil = none
	sig chan struct{} // closed and replaced on every SetDeadline call
}

// newPipeListener returns a listener whose backlog holds one round:
// every bidder of a round dials before the platform accepts, and a
// dial must not block on the accept loop.
func newPipeListener(backlog int) *pipeListener {
	return &pipeListener{
		conns:  make(chan net.Conn, backlog),
		closed: make(chan struct{}),
		sig:    make(chan struct{}),
	}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	for {
		l.mu.Lock()
		dl, sig := l.dl, l.sig
		l.mu.Unlock()
		select {
		case c := <-l.conns:
			return c, nil
		case <-l.closed:
			return nil, net.ErrClosed
		case <-dl:
			return nil, pipeTimeoutError{}
		case <-sig:
			// The deadline changed while blocked: re-arm.
		}
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// SetDeadline mirrors net.TCPListener: a zero time clears the deadline,
// a past time fails pending and future Accepts at once.
func (l *pipeListener) SetDeadline(t time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t.IsZero() {
		l.dl = nil
	} else {
		ch := make(chan struct{})
		if d := time.Until(t); d <= 0 {
			close(ch)
		} else {
			time.AfterFunc(d, func() { close(ch) })
		}
		l.dl = ch
	}
	close(l.sig)
	l.sig = make(chan struct{})
	return nil
}

// DialContext satisfies protocol.ContextDialer.
func (l *pipeListener) DialContext(ctx context.Context, _, _ string) (net.Conn, error) {
	c, s := net.Pipe()
	client, server := pipeConn{Conn: c, peer: s}, pipeConn{Conn: s, peer: c}
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		_ = client.Close()
		return nil, net.ErrClosed
	case <-ctx.Done():
		_ = client.Close()
		return nil, ctx.Err()
	}
}

// pipeConn releases the deadline timers of both pipe ends when either
// end closes, as closing a TCP conn does. A net.Pipe end keeps its last
// deadline's timer, and through it the whole pipe, alive until the
// deadline passes, and refuses to clear it once the peer has closed:
// with the protocol's per-message deadlines that would hold every
// session of the last IOTimeout in memory.
type pipeConn struct {
	net.Conn
	peer net.Conn
}

func (c pipeConn) Close() error {
	// Both fail only on an end already closed, whose timers are released.
	_ = c.peer.SetDeadline(time.Time{})
	_ = c.Conn.SetDeadline(time.Time{})
	return c.Conn.Close()
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

type pipeTimeoutError struct{}

func (pipeTimeoutError) Error() string   { return "pipe listener: accept deadline exceeded" }
func (pipeTimeoutError) Timeout() bool   { return true }
func (pipeTimeoutError) Temporary() bool { return true }

// countingListener is the traced run's net.Listener decorator: it
// counts accepted connections and the bytes the platform reads and
// writes on them. It forwards SetDeadline so the platform keeps its
// deadline-based window close.
type countingListener struct {
	*pipeListener
	accepts atomic.Int64
	bytes   atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.pipeListener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepts.Add(1)
	return &countingConn{Conn: c, bytes: &l.bytes}, nil
}

// countingConn adds every byte read or written to a shared counter.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}
