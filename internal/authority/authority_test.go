package authority

import (
	"net"
	"testing"
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/wire"
)

func testKey() []byte {
	key := make([]byte, wire.KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	return key
}

func TestProcessTimeRequest(t *testing.T) {
	now := int64(1000)
	auth, err := New(testKey(), 9, func() int64 { return now })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sealer, _ := wire.NewSealer(testKey(), 1)
	opener, _ := wire.NewOpener(testKey())

	req := sealer.SealAppend(nil, wire.Message{Kind: wire.KindTimeRequest, Seq: 42, Sleep: time.Second})
	sleep, reply, ok := auth.Process(req)
	if !ok {
		t.Fatal("valid request rejected")
	}
	if sleep != time.Second {
		t.Errorf("sleep = %v, want 1s", sleep)
	}
	now = 2000 // clock advances while the TA sleeps
	msg, sender, err := opener.OpenInto(nil, reply())
	if err != nil {
		t.Fatalf("Open reply: %v", err)
	}
	if sender != 9 {
		t.Errorf("reply sender = %d, want 9", sender)
	}
	if msg.Kind != wire.KindTimeResponse || msg.Seq != 42 {
		t.Errorf("reply = %+v", msg)
	}
	if msg.TimeNanos != 2000 {
		t.Errorf("TimeNanos = %d, want clock at send time (2000)", msg.TimeNanos)
	}
	if auth.Served(1) != 1 || auth.TotalServed() != 1 {
		t.Errorf("served counts wrong: %d/%d", auth.Served(1), auth.TotalServed())
	}
}

func TestProcessClampsSleep(t *testing.T) {
	auth, _ := New(testKey(), 9, func() int64 { return 0 })
	sealer, _ := wire.NewSealer(testKey(), 1)
	req := sealer.SealAppend(nil, wire.Message{Kind: wire.KindTimeRequest, Seq: 1, Sleep: time.Hour})
	sleep, _, ok := auth.Process(req)
	if !ok || sleep != MaxSleep {
		t.Errorf("sleep = %v ok=%v, want clamp to %v", sleep, ok, MaxSleep)
	}
	req = sealer.SealAppend(nil, wire.Message{Kind: wire.KindTimeRequest, Seq: 2, Sleep: -time.Second})
	sleep, _, ok = auth.Process(req)
	if !ok || sleep != 0 {
		t.Errorf("negative sleep = %v ok=%v, want 0", sleep, ok)
	}
}

func TestProcessRejectsGarbageReplayAndWrongKind(t *testing.T) {
	auth, _ := New(testKey(), 9, func() int64 { return 0 })
	if _, _, ok := auth.Process([]byte("garbage")); ok {
		t.Error("garbage accepted")
	}
	sealer, _ := wire.NewSealer(testKey(), 1)
	req := sealer.SealAppend(nil, wire.Message{Kind: wire.KindTimeRequest, Seq: 1})
	if _, _, ok := auth.Process(req); !ok {
		t.Fatal("valid request rejected")
	}
	if _, _, ok := auth.Process(req); ok {
		t.Error("replayed request accepted")
	}
	peer := sealer.SealAppend(nil, wire.Message{Kind: wire.KindPeerTimeRequest, Seq: 2})
	if _, _, ok := auth.Process(peer); ok {
		t.Error("non-TA message kind accepted")
	}
}

func TestSimBindingRoundtrip(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	network := simnet.New(sched, rng, simnet.Link{Base: time.Millisecond})
	binding, err := NewSimBinding(sched, network, testKey(), 100)
	if err != nil {
		t.Fatalf("NewSimBinding: %v", err)
	}
	if binding.Addr() != 100 {
		t.Errorf("Addr = %v", binding.Addr())
	}

	sealer, _ := wire.NewSealer(testKey(), 1)
	opener, _ := wire.NewOpener(testKey())
	var got wire.Message
	var gotAt simtime.Instant
	network.Register(1, func(pkt simnet.Packet) {
		msg, _, err := opener.OpenInto(nil, pkt.Payload)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		got = msg
		gotAt = sched.Now()
	})
	network.Send(1, 100, sealer.SealAppend(nil, wire.Message{Kind: wire.KindTimeRequest, Seq: 5, Sleep: time.Second}))
	sched.RunUntilIdle()

	// 1ms to TA + 1s sleep + 1ms back.
	want := simtime.FromDuration(time.Second + 2*time.Millisecond)
	if gotAt != want {
		t.Errorf("response at %v, want %v", gotAt, want)
	}
	if got.Seq != 5 || got.Kind != wire.KindTimeResponse {
		t.Errorf("response = %+v", got)
	}
	// TA read its clock after the sleep, before the return trip.
	wantTime := int64(simtime.FromDuration(time.Second + time.Millisecond))
	if got.TimeNanos != wantTime {
		t.Errorf("TimeNanos = %d, want %d", got.TimeNanos, wantTime)
	}
	if binding.Authority().Served(1) != 1 {
		t.Error("served count not incremented")
	}
}

func TestServerOverLocalUDP(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv, err := NewServer(conn, testKey(), 200)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	client, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	sealer, _ := wire.NewSealer(testKey(), 1)
	opener, _ := wire.NewOpener(testKey())
	before := time.Now().UnixNano()
	if _, err := client.Write(sealer.SealAppend(nil, wire.Message{
		Kind:  wire.KindTimeRequest,
		Seq:   7,
		Sleep: 20 * time.Millisecond,
	})); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 1024)
	if err := client.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	n, err := client.Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	msg, sender, err := opener.OpenInto(nil, buf[:n])
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if sender != 200 || msg.Kind != wire.KindTimeResponse || msg.Seq != 7 {
		t.Errorf("response = %+v from %d", msg, sender)
	}
	elapsed := time.Duration(msg.TimeNanos - before)
	if elapsed < 20*time.Millisecond {
		t.Errorf("TA responded after %v, should have slept >= 20ms", elapsed)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestServerCloseCancelsPendingReplies(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv, err := NewServer(conn, testKey(), 200)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	go func() { _ = srv.Serve() }()

	client, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	sealer, _ := wire.NewSealer(testKey(), 1)
	if _, err := client.Write(sealer.SealAppend(nil, wire.Message{
		Kind:  wire.KindTimeRequest,
		Seq:   1,
		Sleep: 5 * time.Second,
	})); err != nil {
		t.Fatalf("write: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // let the server take the request
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if got := srv.Authority().TotalServed(); got != 0 {
		t.Errorf("served %d replies after Close, want 0", got)
	}
}

func TestNewRejectsBadKey(t *testing.T) {
	if _, err := New([]byte("short"), 1, func() int64 { return 0 }); err == nil {
		t.Error("bad key accepted")
	}
}
