package main

import (
	"encoding/hex"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"triadtime/internal/serve"
	"triadtime/internal/wire"
	"triadtime/tsa"
)

func testServeKey() []byte {
	key := make([]byte, wire.KeySize)
	for i := range key {
		key[i] = byte(i + 101)
	}
	return key
}

// startEndpoint brings up an in-process live serving endpoint backed by
// a fixed trusted clock — the loadgen sees exactly what a triad-node
// -serve exposes.
func startEndpoint(t *testing.T, key []byte) *serve.LiveServer {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clock := serve.ClockFunc(func() (int64, error) { return 42e9, nil })
	stamper, err := tsa.New(clock, key)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewLiveServer(serve.LiveConfig{
		Conn:     conn,
		Key:      key,
		SenderID: 150,
		Server:   serve.Config{Clock: clock, Stamper: stamper},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestLoadgenAgainstLiveEndpoint(t *testing.T) {
	key := testServeKey()
	srv := startEndpoint(t, key)

	// Offered load kept modest so the smoke test passes on slow CI
	// machines; the ≥50k req/s loopback figure is exercised by
	// TestLoadgenSustainsHighRate below and recorded in DESIGN.md.
	rep, err := generate(config{
		target:     srv.LocalAddr().String(),
		key:        key,
		senderID:   9001,
		workers:    2,
		clients:    8,
		rate:       20000,
		duration:   500 * time.Millisecond,
		tokenEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.sent == 0 {
		t.Fatal("nothing sent")
	}
	// Loopback UDP with a healthy endpoint: expect the vast majority
	// served (allow slack for scheduler hiccups on loaded machines).
	if float64(rep.ok) < 0.8*float64(rep.sent) {
		t.Fatalf("served %d of %d sent", rep.ok, rep.sent)
	}
	if rep.shed != 0 || rep.unavail != 0 {
		t.Fatalf("unexpected shed=%d unavail=%d", rep.shed, rep.unavail)
	}
	if rep.tokens == 0 {
		t.Fatal("no tokens issued despite -token-every")
	}
	if rep.latency.Count != rep.ok+rep.shed+rep.unavail {
		t.Fatalf("latency samples %d != responses %d", rep.latency.Count, rep.ok+rep.shed+rep.unavail)
	}
	if p99 := time.Duration(rep.latency.Quantile(0.99)); p99 <= 0 || p99 > 2*time.Second {
		t.Fatalf("implausible p99 %v", p99)
	}
	out := rep.render()
	for _, want := range []string{"sent", "served", "rtt", "tokens"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if c := srv.Server().Counters(); c.Served != rep.ok || c.TokensIssued != rep.tokens {
		t.Fatalf("endpoint counters %s disagree with report ok=%d tokens=%d", c.Summary(), rep.ok, rep.tokens)
	}
}

// TestLoadgenSustainsHighRate demonstrates the ≥250k req/s loopback
// capability of the batched multi-worker path.
// Opt-in (TRIAD_LOADGEN_FULLRATE=1): wall-clock throughput assertions
// are hardware-dependent and would flake shared CI runners.
func TestLoadgenSustainsHighRate(t *testing.T) {
	if os.Getenv("TRIAD_LOADGEN_FULLRATE") == "" {
		t.Skip("set TRIAD_LOADGEN_FULLRATE=1 to assert ≥250k req/s on loopback")
	}
	key := testServeKey()
	srv := startEndpoint(t, key)
	rep, err := generate(config{
		target:   srv.LocalAddr().String(),
		key:      key,
		senderID: 9001,
		workers:  2,
		clients:  32,
		rate:     300000,
		duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.sentRate < 250000 {
		t.Fatalf("achieved only %.0f req/s offered", rep.sentRate)
	}
	if rep.okRate < 250000 {
		t.Fatalf("served only %.0f req/s", rep.okRate)
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-key", hex.EncodeToString(testServeKey())}, os.Stderr); err == nil {
		t.Fatal("missing -target accepted")
	}
	if err := run([]string{"-target", "localhost:1", "-key", "zz"}, os.Stderr); err == nil {
		t.Fatal("bad key accepted")
	}
	if err := run([]string{"-target", "localhost:1", "-key", hex.EncodeToString(testServeKey()), "-rate", "0"}, os.Stderr); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := run([]string{"-target", "localhost:1", "-key", hex.EncodeToString(testServeKey()), "-workers", "0"}, os.Stderr); err == nil {
		t.Fatal("zero workers accepted")
	}
}
