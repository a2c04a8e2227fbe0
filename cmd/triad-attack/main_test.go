package main

import (
	"math"
	"net"
	"testing"
	"time"

	"triadtime/internal/authority"
	"triadtime/internal/core"
	"triadtime/internal/engine"
	"triadtime/internal/resilient"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

func TestParseMode(t *testing.T) {
	tests := []struct {
		in      string
		high    bool
		wantErr bool
	}{
		{"F+", true, false},
		{"f+", true, false},
		{"FPLUS", true, false},
		{"F-", false, false},
		{"fminus", false, false},
		{"nope", false, true},
	}
	for _, tt := range tests {
		high, err := parseMode(tt.in)
		if (err != nil) != tt.wantErr || (err == nil && high != tt.high) {
			t.Errorf("parseMode(%q) = %v, %v", tt.in, high, err)
		}
	}
}

func TestProxyTargetClassification(t *testing.T) {
	fp := &proxy{delayHigh: true, threshold: 500 * time.Millisecond}
	fm := &proxy{delayHigh: false, threshold: 500 * time.Millisecond}
	if !fp.target(time.Second) || fp.target(time.Millisecond) {
		t.Error("F+ classification wrong")
	}
	if fm.target(time.Second) || !fm.target(time.Millisecond) {
		t.Error("F- classification wrong")
	}
}

func TestFlowHoldMatching(t *testing.T) {
	f := &flow{}
	t0 := time.Now()
	f.noteRequest(t0)
	f.noteRequest(t0.Add(time.Second))
	if got := f.holdOf(t0.Add(300 * time.Millisecond)); got != 300*time.Millisecond {
		t.Errorf("hold = %v", got)
	}
	if got := f.holdOf(t0.Add(1200 * time.Millisecond)); got != 200*time.Millisecond {
		t.Errorf("hold = %v", got)
	}
	if got := f.holdOf(time.Now()); got != 0 {
		t.Errorf("unmatched response hold = %v, want 0", got)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-upstream", ""}); err == nil {
		t.Error("missing upstream accepted")
	}
	if err := run([]string{"-upstream", "localhost:1", "-mode", "bogus"}); err == nil {
		t.Error("bad mode accepted")
	}
}

// TestLiveFMinusThroughProxy wires a real node through the live attack
// proxy to a real Time Authority and verifies the calibrated rate is
// skewed exactly as the paper's F- analysis predicts.
func TestLiveFMinusThroughProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock bound")
	}
	key := make([]byte, wire.KeySize)
	for i := range key {
		key[i] = byte(i + 41)
	}
	// Real Time Authority.
	taConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	taSrv, err := authority.NewServer(taConn, key, 100)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = taSrv.Serve() }()
	defer taSrv.Close()

	// Attack proxy in F- mode: with calibration sleeps {0, 300ms} and a
	// 150ms threshold, delaying the low class by 60ms deflates the
	// slope to ~(1 - 60/300) = 0.8x.
	proxyConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	upAddr, err := net.ResolveUDPAddr("udp", taConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{
		conn:      proxyConn,
		upstream:  upAddr,
		delayHigh: false,
		extra:     60 * time.Millisecond,
		threshold: 150 * time.Millisecond,
		flows:     make(map[string]*flow),
	}
	go func() { _ = p.serve() }()
	defer proxyConn.Close()

	// Victim node whose "authority" is the proxy.
	nodeConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := transport.New(transport.Config{
		Conn: nodeConn,
		Directory: map[simnet.Addr]string{
			100: proxyConn.LocalAddr().String(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer platform.Close()
	var node *engine.Node
	var nodeErr error
	platform.Do(func() {
		node, nodeErr = core.NewNode(platform, core.Config{
			Config:      engine.Config{Key: key, Addr: 1, Authority: 100, DisableMonitor: true},
			CalibSleeps: []time.Duration{0, 300 * time.Millisecond},
		})
	})
	if nodeErr != nil {
		t.Fatal(nodeErr)
	}
	platform.Do(node.Start)

	deadline := time.Now().Add(30 * time.Second)
	var fcalib float64
	for {
		platform.Do(func() { fcalib = node.FCalib() })
		if fcalib != 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if fcalib == 0 {
		t.Fatal("victim never calibrated through the proxy")
	}
	ratio := fcalib / simtime.NominalTSCHz
	// 0.8x expected; allow slack for wall-clock jitter.
	if math.Abs(ratio-0.8) > 0.03 {
		t.Errorf("F_calib ratio through live F- proxy = %v, want ~0.8", ratio)
	}
	if p.delayed.value() == 0 {
		t.Error("proxy delayed nothing")
	}
}

// TestLiveHardenedResistsProxy runs the hardened protocol through the
// live F- proxy: every delayed response violates the node's roundtrip
// bound, so calibration either completes honestly (responses the proxy
// passed) or visibly stalls — never silently skews.
func TestLiveHardenedResistsProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock bound")
	}
	key := make([]byte, wire.KeySize)
	for i := range key {
		key[i] = byte(i + 43)
	}
	taConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	taSrv, err := authority.NewServer(taConn, key, 100)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = taSrv.Serve() }()
	defer taSrv.Close()

	proxyConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	upAddr, err := net.ResolveUDPAddr("udp", taConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	// F- mode: all immediate responses get +60ms, far over the node's
	// RTT bound.
	p := &proxy{
		conn:      proxyConn,
		upstream:  upAddr,
		delayHigh: false,
		extra:     60 * time.Millisecond,
		threshold: 150 * time.Millisecond,
		flows:     make(map[string]*flow),
	}
	go func() { _ = p.serve() }()
	defer proxyConn.Close()

	nodeConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := transport.New(transport.Config{
		Conn:      nodeConn,
		Directory: map[simnet.Addr]string{100: proxyConn.LocalAddr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer platform.Close()
	var node *engine.Node
	var nodeErr error
	platform.Do(func() {
		node, nodeErr = resilient.NewNode(platform, resilient.Config{
			Config:      engine.Config{Key: key, Addr: 1, Authority: 100, DisableMonitor: true},
			CalibWindow: 2 * time.Second, // keep the test quick
			RTTBound:    20 * time.Millisecond,
		})
	})
	if nodeErr != nil {
		t.Fatal(nodeErr)
	}
	platform.Do(node.Start)

	// Under full F- delaying the node is expected to stall (the visible
	// failure mode); a few seconds is enough to observe the rejections.
	deadline := time.Now().Add(6 * time.Second)
	var fcalib float64
	var rejections int
	for time.Now().Before(deadline) {
		platform.Do(func() {
			fcalib = node.FCalib()
			rejections = node.Counters().RTTRejections
		})
		if fcalib != 0 && rejections > 0 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if rejections == 0 {
		t.Error("hardened node never rejected a delayed response")
	}
	if fcalib != 0 {
		ratio := fcalib / simtime.NominalTSCHz
		if math.Abs(ratio-1) > 0.01 {
			t.Errorf("hardened node calibrated to ratio %v under live F- (silent corruption)", ratio)
		}
	}
	// Either outcome — honest calibration or visible stall — is the
	// hardened contract; corruption is the only failure.
}
