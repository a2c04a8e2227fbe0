package simnet

import (
	"testing"
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simtime"
)

func fixedLink(d time.Duration) Link { return Link{Base: d} }

func newNet(t *testing.T, link Link) (*sim.Scheduler, *Network) {
	t.Helper()
	sched := sim.NewScheduler()
	return sched, New(sched, sim.NewRNG(1), link)
}

func TestDeliveryAfterLinkDelay(t *testing.T) {
	sched, net := newNet(t, fixedLink(time.Millisecond))
	var gotAt simtime.Instant
	var got Packet
	net.Register(2, func(p Packet) {
		got = p
		gotAt = sched.Now()
	})
	payload := []byte("ciphertext")
	net.Send(1, 2, payload)
	sched.RunUntilIdle()
	if string(got.Payload) != "ciphertext" || got.From != 1 || got.To != 2 {
		t.Errorf("delivered packet = %+v", got)
	}
	if gotAt != simtime.FromDuration(time.Millisecond) {
		t.Errorf("delivered at %v, want t+1ms", gotAt)
	}
	if got.SentAt != simtime.Epoch {
		t.Errorf("SentAt = %v, want epoch", got.SentAt)
	}
}

func TestUnknownDestinationSilentlyDropped(t *testing.T) {
	sched, net := newNet(t, fixedLink(time.Millisecond))
	net.Send(1, 99, []byte("x"))
	sched.RunUntilIdle()
	sent, delivered, dropped := net.Stats()
	if sent != 1 || delivered != 0 || dropped != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/0/1", sent, delivered, dropped)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	_, net := newNet(t, fixedLink(0))
	net.Register(1, func(Packet) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register should panic")
		}
	}()
	net.Register(1, func(Packet) {})
}

func TestPerLinkOverride(t *testing.T) {
	sched, net := newNet(t, fixedLink(time.Millisecond))
	net.SetLink(1, 2, fixedLink(50*time.Millisecond))
	var at12, at21 simtime.Instant
	net.Register(2, func(Packet) { at12 = sched.Now() })
	net.Register(1, func(Packet) { at21 = sched.Now() })
	net.Send(1, 2, []byte("a"))
	net.Send(2, 1, []byte("b"))
	sched.RunUntilIdle()
	if at12 != simtime.FromDuration(50*time.Millisecond) {
		t.Errorf("overridden link delivered at %v, want t+50ms", at12)
	}
	if at21 != simtime.FromDuration(time.Millisecond) {
		t.Errorf("default link delivered at %v, want t+1ms", at21)
	}
}

func TestLoss(t *testing.T) {
	sched, net := newNet(t, Link{Base: time.Millisecond, LossProb: 0.5})
	received := 0
	net.Register(2, func(Packet) { received++ })
	const n = 2000
	for i := 0; i < n; i++ {
		net.Send(1, 2, []byte("x"))
	}
	sched.RunUntilIdle()
	if received < n/2-100 || received > n/2+100 {
		t.Errorf("received %d of %d with 50%% loss", received, n)
	}
	sent, delivered, dropped := net.Stats()
	if sent != n || delivered != received || delivered+dropped != n {
		t.Errorf("stats inconsistent: %d/%d/%d", sent, delivered, dropped)
	}
}

func TestJitterAddsPositiveDelay(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched, sim.NewRNG(7), DefaultLink())
	worst := time.Duration(0)
	count := 0
	net.Register(2, func(p Packet) {
		d := sched.Now().Sub(p.SentAt)
		if d < DefaultLink().Base {
			t.Fatalf("delivery faster than base delay: %v", d)
		}
		if d > worst {
			worst = d
		}
		count++
	})
	for i := 0; i < 1000; i++ {
		net.Send(1, 2, []byte("x"))
	}
	sched.RunUntilIdle()
	if count != 1000 {
		t.Fatalf("delivered %d, want 1000", count)
	}
	if worst == DefaultLink().Base {
		t.Error("jitter appears disabled: all deliveries at exactly base delay")
	}
}

type delayBox struct {
	match func(Packet) bool
	extra time.Duration
	seen  int
}

func (b *delayBox) Process(_ simtime.Instant, p Packet) Verdict {
	b.seen++
	if b.match(p) {
		return Verdict{ExtraDelay: b.extra}
	}
	return Verdict{}
}

type dropBox struct{ match func(Packet) bool }

func (b *dropBox) Process(_ simtime.Instant, p Packet) Verdict {
	return Verdict{Drop: b.match(p)}
}

func TestMiddleboxDelay(t *testing.T) {
	sched, net := newNet(t, fixedLink(time.Millisecond))
	box := &delayBox{
		match: func(p Packet) bool { return p.From == 3 },
		extra: 100 * time.Millisecond,
	}
	net.AttachMiddlebox(box)
	var atAttacked, atClean simtime.Instant
	net.Register(2, func(p Packet) {
		if p.From == 3 {
			atAttacked = sched.Now()
		} else {
			atClean = sched.Now()
		}
	})
	net.Send(3, 2, []byte("delayed"))
	net.Send(1, 2, []byte("clean"))
	sched.RunUntilIdle()
	if atAttacked != simtime.FromDuration(101*time.Millisecond) {
		t.Errorf("attacked packet at %v, want t+101ms", atAttacked)
	}
	if atClean != simtime.FromDuration(time.Millisecond) {
		t.Errorf("clean packet at %v, want t+1ms", atClean)
	}
	if box.seen != 2 {
		t.Errorf("middlebox saw %d packets, want 2", box.seen)
	}
}

func TestMiddleboxDrop(t *testing.T) {
	sched, net := newNet(t, fixedLink(time.Millisecond))
	net.AttachMiddlebox(&dropBox{match: func(p Packet) bool { return p.To == 2 }})
	delivered := 0
	net.Register(2, func(Packet) { delivered++ })
	net.Register(3, func(Packet) { delivered++ })
	net.Send(1, 2, []byte("x"))
	net.Send(1, 3, []byte("y"))
	sched.RunUntilIdle()
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (packet to addr 2 dropped)", delivered)
	}
}

func TestMiddleboxDelaysAccumulate(t *testing.T) {
	sched, net := newNet(t, fixedLink(time.Millisecond))
	all := func(Packet) bool { return true }
	net.AttachMiddlebox(&delayBox{match: all, extra: 10 * time.Millisecond})
	net.AttachMiddlebox(&delayBox{match: all, extra: 5 * time.Millisecond})
	var at simtime.Instant
	net.Register(2, func(Packet) { at = sched.Now() })
	net.Send(1, 2, []byte("x"))
	sched.RunUntilIdle()
	if at != simtime.FromDuration(16*time.Millisecond) {
		t.Errorf("delivered at %v, want t+16ms", at)
	}
}

// TestLossSeparatedFromMiddleboxDrops pins the Send accounting fix:
// middleboxes observe every sent packet — including ones the lossy link
// swallows — and Stats no longer conflates link loss with middlebox
// drops.
func TestLossSeparatedFromMiddleboxDrops(t *testing.T) {
	sched, net := newNet(t, Link{Base: time.Millisecond, LossProb: 0.5})
	box := &delayBox{match: func(Packet) bool { return false }}
	net.AttachMiddlebox(box)
	net.Register(2, func(Packet) {})
	const n = 2000
	for i := 0; i < n; i++ {
		net.Send(1, 2, []byte("x"))
	}
	sched.RunUntilIdle()
	if box.seen != n {
		t.Errorf("middlebox saw %d of %d packets; lossy-link traffic must be observable", box.seen, n)
	}
	lostLink, droppedBox, unrouted := net.DropStats()
	if droppedBox != 0 || unrouted != 0 {
		t.Errorf("droppedBox = %d, unrouted = %d, want 0/0", droppedBox, unrouted)
	}
	if lostLink < n/2-100 || lostLink > n/2+100 {
		t.Errorf("lostLink = %d of %d with 50%% loss", lostLink, n)
	}
	sent, delivered, dropped := net.Stats()
	if sent != n || delivered+dropped != n || dropped != lostLink {
		t.Errorf("stats inconsistent: %d/%d/%d, lostLink %d", sent, delivered, dropped, lostLink)
	}
}

func TestDropStatsSeparatesBoxDrops(t *testing.T) {
	sched, net := newNet(t, fixedLink(time.Millisecond))
	net.AttachMiddlebox(&dropBox{match: func(p Packet) bool { return p.To == 2 }})
	net.Register(2, func(Packet) {})
	net.Register(3, func(Packet) {})
	net.Send(1, 2, []byte("x"))
	net.Send(1, 3, []byte("y"))
	net.Send(1, 99, []byte("z"))
	sched.RunUntilIdle()
	lostLink, droppedBox, unrouted := net.DropStats()
	if lostLink != 0 || droppedBox != 1 || unrouted != 1 {
		t.Errorf("DropStats = %d/%d/%d, want 0/1/1", lostLink, droppedBox, unrouted)
	}
	if _, _, dropped := net.Stats(); dropped != 2 {
		t.Errorf("aggregate dropped = %d, want 2", dropped)
	}
}

// TestSenderMayReuseBufferAfterSend pins the pooled-delivery contract:
// the network copies the payload when scheduling a delivery, so a sender
// overwriting its buffer right after Send cannot corrupt the datagram.
func TestSenderMayReuseBufferAfterSend(t *testing.T) {
	sched, net := newNet(t, fixedLink(time.Millisecond))
	var got []byte
	net.Register(2, func(p Packet) { got = append([]byte(nil), p.Payload...) })
	buf := []byte("original")
	net.Send(1, 2, buf)
	copy(buf, "clobber!")
	sched.RunUntilIdle()
	if string(got) != "original" {
		t.Errorf("delivered %q; sender reuse corrupted an in-flight packet", got)
	}
}

// TestDuplicatePayloadIsolated pins the duplicate-copy fix: a handler
// that mutates the payload it received must not corrupt the replayed
// copy, which arrives later from the same Send.
func TestDuplicatePayloadIsolated(t *testing.T) {
	sched, net := newNet(t, fixedLink(time.Millisecond))
	net.AttachMiddlebox(dupBox{})
	var got []string
	net.Register(2, func(p Packet) {
		got = append(got, string(p.Payload))
		for i := range p.Payload {
			p.Payload[i] = 'X' // hostile handler scribbles on its buffer
		}
	})
	net.Send(1, 2, []byte("payload"))
	sched.RunUntilIdle()
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(got))
	}
	if got[0] != "payload" || got[1] != "payload" {
		t.Errorf("deliveries = %q; duplicate shared the original's buffer", got)
	}
}

// TestDeliverZeroAllocSteadyState is the allocation regression guard CI
// runs: once the pending-packet pool is warm, Send+Step must not
// allocate.
func TestDeliverZeroAllocSteadyState(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched, sim.NewRNG(1), DefaultLink())
	net.Register(2, func(Packet) {})
	payload := make([]byte, 64)
	for i := 0; i < 256; i++ {
		net.Send(1, 2, payload)
		sched.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		net.Send(1, 2, payload)
		sched.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state Send+Step allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkNetworkDelivery is the headline network metric: one jittered
// send and its delivery per iteration.
func BenchmarkNetworkDelivery(b *testing.B) {
	sched := sim.NewScheduler()
	net := New(sched, sim.NewRNG(1), DefaultLink())
	net.Register(2, func(Packet) {})
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(1, 2, payload)
		sched.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
}

func BenchmarkSendDeliver(b *testing.B) {
	sched := sim.NewScheduler()
	net := New(sched, sim.NewRNG(1), DefaultLink())
	net.Register(2, func(Packet) {})
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Send(1, 2, payload)
		sched.Step()
	}
}

type dupBox struct{}

func (dupBox) Process(_ simtime.Instant, _ Packet) Verdict {
	return Verdict{Duplicate: true}
}

func TestMiddleboxDuplicate(t *testing.T) {
	sched, net := newNet(t, fixedLink(time.Millisecond))
	net.AttachMiddlebox(dupBox{})
	got := 0
	net.Register(2, func(Packet) { got++ })
	net.Send(1, 2, []byte("x"))
	sched.RunUntilIdle()
	if got != 2 {
		t.Errorf("deliveries = %d, want 2 (duplicated)", got)
	}
	_, delivered, _ := net.Stats()
	if delivered != 2 {
		t.Errorf("stats delivered = %d", delivered)
	}
}

func TestLinkPolicyPrecedence(t *testing.T) {
	// Precedence: explicit SetLink pair beats the policy, the policy
	// beats the default link, and a policy miss (ok=false) falls back
	// to the default.
	sched, net := newNet(t, fixedLink(time.Millisecond))
	net.SetLink(1, 2, fixedLink(5*time.Millisecond))
	net.SetLinkPolicy(func(from, to Addr) (Link, bool) {
		if from == 3 {
			return fixedLink(20 * time.Millisecond), true
		}
		return Link{}, false
	})
	deliveredAt := map[Addr]simtime.Instant{}
	for _, a := range []Addr{2, 4} {
		a := a
		net.Register(a, func(p Packet) { deliveredAt[p.From] = sched.Now() })
	}
	net.Send(1, 2, []byte("pair override"))
	net.Send(3, 4, []byte("policy"))
	net.Send(5, 4, []byte("policy miss, default"))
	sched.RunUntilIdle()
	if got := deliveredAt[1]; got != simtime.FromDuration(5*time.Millisecond) {
		t.Errorf("pair-override delivery at %v, want 5ms", got)
	}
	if got := deliveredAt[3]; got != simtime.FromDuration(20*time.Millisecond) {
		t.Errorf("policy delivery at %v, want 20ms", got)
	}
	if got := deliveredAt[5]; got != simtime.FromDuration(time.Millisecond) {
		t.Errorf("policy-miss delivery at %v, want default 1ms", got)
	}
}
