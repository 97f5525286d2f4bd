// Package protocol implements the MCS system's wire protocol: a
// platform daemon runs one DP-hSRC auction round over TCP with a crowd
// of worker clients, following the workflow of Section III-A of the
// paper — task announcement, sealed bid collection, winner/payment
// determination, label collection, weighted aggregation, and
// settlement. Messages are JSON values streamed over the connection.
package protocol

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"
)

// Type discriminates protocol messages.
type Type string

// Protocol message types, in the order they typically flow.
const (
	// TypeHello is the worker's first message, identifying itself.
	TypeHello Type = "hello"
	// TypeAnnounce is the platform's task announcement with the auction
	// parameters.
	TypeAnnounce Type = "announce"
	// TypeBid is the worker's sealed bid (bundle + price).
	TypeBid Type = "bid"
	// TypeOutcome informs a worker whether she won and at what clearing
	// price.
	TypeOutcome Type = "outcome"
	// TypeLabels carries a winner's sensing reports back to the
	// platform.
	TypeLabels Type = "labels"
	// TypePayment settles a winner's payment.
	TypePayment Type = "payment"
	// TypeDone closes the round; for losers it doubles as the final
	// message after TypeOutcome.
	TypeDone Type = "done"
	// TypeError aborts the conversation with a reason.
	TypeError Type = "error"
)

// LabelReport is one task label in a TypeLabels message.
type LabelReport struct {
	Task  int  `json:"task"`
	Label int8 `json:"label"`
}

// Message is the single wire envelope; unused fields are omitted per
// type. A one-struct envelope keeps decoding trivial and avoids
// double-unmarshalling through raw JSON.
type Message struct {
	Type Type `json:"type"`

	// Hello / Bid / Labels.
	WorkerID string `json:"worker_id,omitempty"`

	// Announce.
	NumTasks   int       `json:"num_tasks,omitempty"`
	Thresholds []float64 `json:"thresholds,omitempty"`
	Epsilon    float64   `json:"epsilon,omitempty"`
	CMin       float64   `json:"cmin,omitempty"`
	CMax       float64   `json:"cmax,omitempty"`
	PriceGrid  []float64 `json:"price_grid,omitempty"`
	// BidWindowMillis tells workers how long the platform will accept
	// bids.
	BidWindowMillis int64 `json:"bid_window_millis,omitempty"`

	// Bid.
	Bundle []int   `json:"bundle,omitempty"`
	Price  float64 `json:"price,omitempty"`

	// Outcome / Payment.
	Won           bool    `json:"won,omitempty"`
	ClearingPrice float64 `json:"clearing_price,omitempty"`
	Amount        float64 `json:"amount,omitempty"`

	// Labels.
	Reports []LabelReport `json:"reports,omitempty"`

	// Error.
	Err string `json:"err,omitempty"`
}

// Errors surfaced by the conn layer.
var (
	ErrUnexpectedType = errors.New("protocol: unexpected message type")
	ErrRemote         = errors.New("protocol: remote error")
)

// Conn wraps a net.Conn with JSON encoding and per-message deadlines.
type Conn struct {
	raw net.Conn
	enc *json.Encoder
	dec *json.Decoder
	// timeout bounds each single Send/Recv; zero means no deadline.
	timeout time.Duration
}

// NewConn wraps raw. timeout bounds every individual send and receive.
func NewConn(raw net.Conn, timeout time.Duration) *Conn {
	return &Conn{
		raw:     raw,
		enc:     json.NewEncoder(raw),
		dec:     json.NewDecoder(raw),
		timeout: timeout,
	}
}

// Send writes one message.
func (c *Conn) Send(m Message) error {
	if err := c.writeDeadline(); err != nil {
		return err
	}
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("protocol: send %s: %w", m.Type, err)
	}
	return nil
}

// sendFrame writes a message pre-rendered as its json.Encoder output
// (the JSON value plus '\n') in one Write, exactly as Send would have
// written it. t names the message in errors.
func (c *Conn) sendFrame(t Type, frame []byte) error {
	if err := c.writeDeadline(); err != nil {
		return err
	}
	if _, err := c.raw.Write(frame); err != nil {
		return fmt.Errorf("protocol: send %s: %w", t, err)
	}
	return nil
}

// writeDeadline arms the per-message write deadline.
func (c *Conn) writeDeadline() error {
	if c.timeout > 0 {
		return c.raw.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	return nil
}

// envelope is a decoded message's head: its type and, for TypeError,
// the remote reason. Message implements it, as do the lean views a
// reader decodes when it needs only a few of Message's fields.
type envelope interface {
	head() (Type, string)
}

func (m *Message) head() (Type, string) { return m.Type, m.Err }

// recvInto reads the next message into v, a pointer to Message or to a
// lean view of it (fields the view lacks are skipped, not parsed).
func (c *Conn) recvInto(v envelope) error {
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	if err := c.dec.Decode(v); err != nil {
		return fmt.Errorf("protocol: recv: %w", err)
	}
	return nil
}

// expectInto is Expect into v: a TypeError message surfaces as
// ErrRemote with the remote reason, any other type but want as
// ErrUnexpectedType.
func (c *Conn) expectInto(v envelope, want Type) error {
	if err := c.recvInto(v); err != nil {
		return err
	}
	switch t, reason := v.head(); {
	case t == TypeError:
		return fmt.Errorf("%w: %s", ErrRemote, reason)
	case t != want:
		return fmt.Errorf("%w: got %q, want %q", ErrUnexpectedType, t, want)
	}
	return nil
}

// Recv reads the next message.
func (c *Conn) Recv() (Message, error) {
	var m Message
	if err := c.recvInto(&m); err != nil {
		return Message{}, err
	}
	return m, nil
}

// Expect reads the next message and checks its type. A TypeError
// message is surfaced as ErrRemote with the remote reason.
func (c *Conn) Expect(want Type) (Message, error) {
	var m Message
	if err := c.expectInto(&m, want); err != nil {
		return Message{}, err
	}
	return m, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// SendError best-effort sends a TypeError and returns the original
// error for chaining.
func (c *Conn) SendError(cause error) error {
	_ = c.Send(Message{Type: TypeError, Err: cause.Error()})
	return cause
}
