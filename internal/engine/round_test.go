package engine

import (
	"testing"
	"time"

	"triadtime/internal/enclave"
	"triadtime/internal/simnet"
	"triadtime/internal/wire"
)

// fakePlatform is a scripted enclave.Platform: the test moves the TSC,
// fires AEXs and delivers datagrams by hand. One tick is one
// nanosecond, so durations and ticks read the same.
type fakePlatform struct {
	tsc    uint64
	sent   []fakeSend
	timers []*fakeTimer
	onAEX  func()
	onMsg  func(simnet.Addr, []byte)
}

type fakeSend struct {
	to      simnet.Addr
	payload []byte
}

type fakeTimer struct {
	at   uint64
	fn   func()
	dead bool // fired or cancelled
}

func (p *fakePlatform) ReadTSC() uint64    { return p.tsc }
func (p *fakePlatform) BootTSCHz() float64 { return 1e9 }
func (p *fakePlatform) Send(to simnet.Addr, payload []byte) {
	p.sent = append(p.sent, fakeSend{to, append([]byte(nil), payload...)})
}
func (p *fakePlatform) AfterTicks(ticks uint64, fn func()) enclave.CancelFunc {
	t := &fakeTimer{at: p.tsc + ticks, fn: fn}
	p.timers = append(p.timers, t)
	return func() { t.dead = true }
}
func (p *fakePlatform) SetAEXHandler(fn func())                        { p.onAEX = fn }
func (p *fakePlatform) SetMessageHandler(fn func(simnet.Addr, []byte)) { p.onMsg = fn }
func (p *fakePlatform) StartMonitor(*enclave.RateMonitor)              {}
func (p *fakePlatform) armed() (n int) {
	for _, t := range p.timers {
		if !t.dead {
			n++
		}
	}
	return n
}

// advance moves the TSC forward, firing every timer that comes due.
func (p *fakePlatform) advance(d time.Duration) {
	p.tsc += uint64(d)
	for i := 0; i < len(p.timers); i++ { // fired timers may arm new ones
		if t := p.timers[i]; !t.dead && t.at <= p.tsc {
			t.dead = true
			t.fn()
		}
	}
}

type nopPolicy struct{}

func (nopPolicy) Start(*Engine)         {}
func (nopPolicy) OnAEX(*Engine)         {}
func (nopPolicy) OnStart(*Engine)       {}
func (nopPolicy) OnTaint(*Engine)       {}
func (nopPolicy) StartRefCalib(*Engine) {}
func (nopPolicy) Cancel(*Engine)        {}

// roundHarness is one engine on a fakePlatform with three configured
// authorities, plus the sealers that let the test answer as any of
// them (or as an outsider).
type roundHarness struct {
	t      *testing.T
	p      *fakePlatform
	e      *Engine
	auths  []simnet.Addr
	opener *wire.Opener
	reqs   []wire.Message // decoded p.sent, see request
	seal   map[simnet.Addr]*wire.Sealer
	closed []*Round // every close-handler call, in order
}

const (
	roundTimeout = 250 * time.Millisecond
	outsider     = simnet.Addr(66) // holds the cluster key, is no authority
)

func newRoundHarness(t *testing.T) *roundHarness {
	t.Helper()
	key := make([]byte, wire.KeySize)
	h := &roundHarness{
		t:     t,
		p:     NewFakePlatform(),
		auths: []simnet.Addr{100, 101, 102},
		seal:  map[simnet.Addr]*wire.Sealer{},
	}
	var err error
	h.e, err = New(h.p, Config{Key: key, Addr: 1, Authorities: h.auths, DisableMonitor: true},
		Policies{Calibration: nopPolicy{}, Recovery: nopPolicy{}, Filter: AdoptIfAhead{}})
	if err != nil {
		t.Fatal(err)
	}
	if h.opener, err = wire.NewOpener(key); err != nil {
		t.Fatal(err)
	}
	for _, a := range append([]simnet.Addr{outsider}, h.auths...) {
		if h.seal[a], err = wire.NewSealer(key, uint32(a)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// begin opens a round to the first n authorities, recording its close.
func (h *roundHarness) begin(n int, sleep time.Duration) *Round {
	return h.e.BeginRound(h.auths[:n], sleep, roundTimeout, func(r *Round) { h.closed = append(h.closed, r) })
}

// request decodes the i-th datagram the engine sent (each exactly once:
// the opener has a replay window too).
func (h *roundHarness) request(i int) (simnet.Addr, wire.Message) {
	h.t.Helper()
	if i >= len(h.p.sent) {
		h.t.Fatalf("only %d datagrams sent, want index %d", len(h.p.sent), i)
	}
	for n := len(h.reqs); n <= i; n++ {
		msg, sender, err := h.opener.OpenInto(nil, h.p.sent[n].payload)
		if err != nil || sender != uint32(h.e.Addr()) {
			h.t.Fatalf("sent datagram %d: sender %d, err %v", n, sender, err)
		}
		h.reqs = append(h.reqs, msg)
	}
	return h.p.sent[i].to, h.reqs[i]
}

// answer delivers a freshly sealed TimeResponse from `from` echoing seq.
func (h *roundHarness) answer(from simnet.Addr, seq uint64, nanos int64) {
	h.p.onMsg(0, h.seal[from].SealAppend(nil, wire.Message{Kind: wire.KindTimeResponse, Seq: seq, TimeNanos: nanos}))
}

// answerRequest answers the i-th sent request as the authority asked.
func (h *roundHarness) answerRequest(i int, nanos int64) {
	to, req := h.request(i)
	h.answer(to, req.Seq, nanos)
}

func (h *roundHarness) wantClosed(n int) {
	h.t.Helper()
	if len(h.closed) != n {
		h.t.Fatalf("close handler ran %d times, want %d", len(h.closed), n)
	}
}

func (h *roundHarness) wantFrom(r *Round, want ...simnet.Addr) {
	h.t.Helper()
	got := r.Readings()
	if len(got) != len(want) {
		h.t.Fatalf("%d readings, want %d", len(got), len(want))
	}
	for i, rd := range got {
		if rd.From != want[i] {
			h.t.Fatalf("reading %d from %d, want %d", i, rd.From, want[i])
		}
	}
}

// TestRound scripts the Time Authority exchange primitive one behaviour
// at a time. Every case must leave the engine's open set empty and no
// deadline armed.
func TestRound(t *testing.T) {
	cases := []struct {
		name string
		run  func(h *roundHarness)
	}{
		{"every authority answers: closes early, deadline cancelled", func(h *roundHarness) {
			h.begin(3, 0)
			h.p.advance(time.Millisecond)
			h.answerRequest(2, 302)
			h.answerRequest(0, 300)
			h.wantClosed(0)
			h.p.advance(time.Millisecond)
			h.answerRequest(1, 301)
			h.wantClosed(1)
			h.wantFrom(h.closed[0], 100, 101, 102) // asked order, not arrival order
			want := Reading{From: 101, TimeNanos: 301, SentTSC: 1000, RecvTSC: 1000 + 2e6}
			if rd := h.closed[0].Readings()[1]; rd.From != want.From || rd.TimeNanos != want.TimeNanos ||
				rd.SentTSC != want.SentTSC || rd.RecvTSC != want.RecvTSC {
				h.t.Errorf("reading = %+v, want %+v", rd, want)
			} else if rd.RTTTicks() != 2e6 || rd.MidTSC() != 1000+1e6 {
				h.t.Errorf("RTTTicks %d MidTSC %v, want 2e6 and 1000+1e6", rd.RTTTicks(), rd.MidTSC())
			}
			if h.p.armed() != 0 {
				h.t.Error("deadline still armed after the last answer")
			}
			h.p.advance(roundTimeout)
			h.wantClosed(1)
		}},
		{"deadline: closes with the partial set", func(h *roundHarness) {
			h.begin(3, 0)
			h.answerRequest(2, 302)
			h.answerRequest(0, 300)
			h.p.advance(roundTimeout - 1)
			h.wantClosed(0)
			h.p.advance(1)
			h.wantClosed(1)
			h.wantFrom(h.closed[0], 100, 102)
			if _, ok := h.closed[0].First(); !ok {
				h.t.Error("First() found no answer")
			}
		}},
		{"nobody answers: closes empty", func(h *roundHarness) {
			h.begin(1, 0)
			h.p.advance(roundTimeout)
			h.wantClosed(1)
			h.wantFrom(h.closed[0])
			if _, ok := h.closed[0].First(); ok {
				h.t.Error("First() invented an answer")
			}
		}},
		{"duplicate answer is ignored", func(h *roundHarness) {
			h.begin(2, 0)
			h.answerRequest(0, 300)
			h.p.advance(time.Millisecond)
			h.answerRequest(0, 999) // re-sealed, so the replay window passes it
			h.wantClosed(0)         // it must not count as the second authority
			h.p.advance(roundTimeout)
			h.wantClosed(1)
			h.wantFrom(h.closed[0], 100)
			if rd := h.closed[0].Readings()[0]; rd.TimeNanos != 300 || rd.RTTTicks() != 0 {
				h.t.Errorf("duplicate overwrote the reading: %+v", rd)
			}
		}},
		{"right seq from the wrong sender is ignored", func(h *roundHarness) {
			h.begin(2, 0)
			_, req := h.request(0)
			h.answer(101, req.Seq, 300)      // another authority of the same round
			h.answer(102, req.Seq, 300)      // an authority not asked
			h.answer(outsider, req.Seq, 300) // authenticated, but no authority
			h.p.advance(roundTimeout)
			h.wantClosed(1)
			h.wantFrom(h.closed[0])
		}},
		{"answer after Cancel is ignored", func(h *roundHarness) {
			r := h.begin(1, 0)
			r.Cancel()
			if h.p.armed() != 0 {
				h.t.Error("deadline still armed after Cancel")
			}
			h.answerRequest(0, 300)
			h.p.advance(roundTimeout)
			h.wantClosed(0)
			r.Cancel() // idempotent
			(*Round)(nil).Cancel()
		}},
		{"answer after close is ignored", func(h *roundHarness) {
			h.begin(2, 0)
			h.answerRequest(0, 300)
			h.p.advance(roundTimeout)
			h.answerRequest(1, 301)
			h.wantClosed(1)
			h.wantFrom(h.closed[0], 100)
			h.closed[0].Cancel() // cancelling a closed round is a no-op
		}},
		{"AEX between send and close: Severed", func(h *roundHarness) {
			r := h.begin(1, 0)
			if r.Severed() {
				h.t.Error("Severed before any AEX")
			}
			h.p.onAEX()
			h.answerRequest(0, 300)
			h.wantClosed(1)
			if !h.closed[0].Severed() {
				h.t.Error("not Severed though an AEX fired after the send")
			}
			// A round sent after the AEX is whole again.
			h.begin(1, 0)
			h.answerRequest(1, 301)
			h.wantClosed(2)
			if h.closed[1].Severed() {
				h.t.Error("Severed by an AEX that preceded the send")
			}
		}},
		{"Sleep reaches the wire, one seq per authority", func(h *roundHarness) {
			r := h.begin(2, time.Second)
			to0, m0 := h.request(0)
			to1, m1 := h.request(1)
			if to0 != 100 || to1 != 101 || len(h.p.sent) != 2 {
				h.t.Errorf("sent to %d, %d (%d datagrams), want 100, 101", to0, to1, len(h.p.sent))
			}
			for _, m := range []wire.Message{m0, m1} {
				if m.Kind != wire.KindTimeRequest || m.Sleep != time.Second {
					h.t.Errorf("request = %+v, want a TimeRequest with Sleep 1s", m)
				}
			}
			if m0.Seq == m1.Seq || m0.Seq == 0 || m1.Seq == 0 {
				h.t.Errorf("sequence numbers %d, %d: want distinct and non-zero", m0.Seq, m1.Seq)
			}
			r.Cancel()
		}},
		{"over-bound RTT is the caller's to see", func(h *roundHarness) {
			h.begin(1, 0)
			h.p.advance(7 * time.Millisecond)
			h.answerRequest(0, 300)
			h.wantClosed(1)
			if rd, _ := h.closed[0].First(); rd.RTTTicks() != uint64(7*time.Millisecond) {
				h.t.Errorf("RTTTicks = %d, want 7ms of ticks", rd.RTTTicks())
			}
		}},
		{"close handler begins the next round", func(h *roundHarness) {
			var next *Round
			h.e.BeginRound(h.auths[:1], 0, roundTimeout, func(r *Round) {
				h.closed = append(h.closed, r)
				next = h.begin(1, 0)
			})
			other := h.begin(2, 0) // open beside it, later in the set
			_, first := h.request(0)
			h.answerRequest(0, 300)
			h.wantClosed(1)
			if len(h.e.rounds) != 2 || h.e.rounds[0] != other || h.e.rounds[1] != next {
				h.t.Fatalf("open set after chained begin = %v, want [other next]", h.e.rounds)
			}
			h.answer(100, first.Seq, 999) // the closed round's seq: stale
			h.wantClosed(1)
			h.answerRequest(3, 303) // next
			h.wantClosed(2)
			h.answerRequest(1, 301) // other, both authorities
			h.answerRequest(2, 302)
			h.wantClosed(3)
			if h.closed[1] != next || h.closed[2] != other {
				h.t.Error("answers routed to the wrong round")
			}
			h.wantFrom(next, 100)
			h.wantFrom(other, 100, 101)
			if rd, _ := next.First(); rd.TimeNanos != 303 {
				h.t.Errorf("chained round read %d, want 303", rd.TimeNanos)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newRoundHarness(t)
			c.run(h)
			if len(h.e.rounds) != 0 {
				t.Errorf("open set holds %d rounds at the end", len(h.e.rounds))
			}
			if n := h.p.armed(); n != 0 {
				t.Errorf("%d deadlines still armed at the end", n)
			}
		})
	}
}
