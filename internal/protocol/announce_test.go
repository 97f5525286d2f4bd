package protocol

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/crowd"
)

// mcsPlatformDefaults mirrors cmd/mcs-platform's flag defaults: 8
// tasks at delta 0.3, epsilon 0.5, costs in [5, 30] on a 0.5 price
// grid, a 15s window.
func mcsPlatformDefaults(t *testing.T) PlatformConfig {
	cfg := testPlatformConfig(t)
	cfg.NumTasks = 8
	cfg.Thresholds = []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
	cfg.PriceGrid = core.PriceGridRange(5, 30, 0.5)
	cfg.BidWindow = 15 * time.Second
	return cfg
}

// TestAnnounceFrameGolden: the announce rendered once per platform is
// byte-for-byte what json.Encoder wrote for the per-handshake announce
// literal, and it is what a worker reads off the wire after its hello.
func TestAnnounceFrameGolden(t *testing.T) {
	for name, cfg := range map[string]PlatformConfig{
		"protocol-test":         testPlatformConfig(t),
		"mcs-platform-defaults": mcsPlatformDefaults(t),
	} {
		p, err := NewPlatform(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(Message{
			Type:            TypeAnnounce,
			NumTasks:        cfg.NumTasks,
			Thresholds:      cfg.Thresholds,
			Epsilon:         cfg.Epsilon,
			CMin:            cfg.CMin,
			CMax:            cfg.CMax,
			PriceGrid:       cfg.PriceGrid,
			BidWindowMillis: cfg.BidWindow.Milliseconds(),
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.announce, want.Bytes()) {
			t.Fatalf("%s: announce frame\n%s\nwant\n%s", name, p.announce, want.Bytes())
		}

		client, server := net.Pipe()
		go func() {
			_, _ = p.handshake(server)
			_ = server.Close()
		}()
		if err := NewConn(client, time.Second).Send(Message{Type: TypeHello, WorkerID: "w"}); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(client).ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		_ = client.Close()
		if !bytes.Equal(line, want.Bytes()) {
			t.Fatalf("%s: wire announce\n%s\nwant\n%s", name, line, want.Bytes())
		}
	}
}

// scriptedDialer hands Participate one end of a pipe whose platform
// side reads the hello and answers with a fixed announce-phase frame.
type scriptedDialer struct{ reply string }

func (d scriptedDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		conn := NewConn(server, time.Second)
		if _, err := conn.Recv(); err != nil {
			return
		}
		_, _ = server.Write([]byte(d.reply + "\n"))
		_, _ = conn.Recv() // let the worker finish reading before the close
	}()
	return client, nil
}

// TestWorkerLeanAnnounceErrors: decoding only the announce fields the
// worker reads still surfaces a platform TypeError as ErrRemote with
// its reason, and any other message type as ErrUnexpectedType.
func TestWorkerLeanAnnounceErrors(t *testing.T) {
	cases := []struct {
		reply string
		want  error
	}{
		{`{"type":"error","err":"boom"}`, ErrRemote},
		{`{"type":"outcome","won":true}`, ErrUnexpectedType},
		{`{"type":"hello","worker_id":"x","num_tasks":4}`, ErrUnexpectedType},
	}
	for _, tc := range cases {
		_, err := Participate(context.Background(), "scripted", WorkerConfig{
			ID: "w", Bundle: []int{0}, Cost: 6,
			Labels:    func(int) crowd.Label { return crowd.Positive },
			IOTimeout: time.Second,
			Dialer:    scriptedDialer{reply: tc.reply},
		})
		if !errors.Is(err, tc.want) {
			t.Fatalf("reply %s: err = %v, want %v", tc.reply, err, tc.want)
		}
		if tc.want == ErrRemote && !strings.Contains(err.Error(), "boom") {
			t.Fatalf("remote reason lost: %v", err)
		}
	}
}
