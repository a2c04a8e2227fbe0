package transport

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"
)

func udpPair(t *testing.T) (server *net.UDPConn, client *net.UDPConn) {
	t.Helper()
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server = spc.(*net.UDPConn)
	t.Cleanup(func() { server.Close() })
	client, err = net.DialUDP("udp", nil, server.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return server, client
}

// TestBatchRoundtrip pushes a full batch client→server and a full
// batch of replies server→client through the platform's batched (or
// fallback) syscall path.
func TestBatchRoundtrip(t *testing.T) {
	server, client := udpPair(t)
	sbc, err := NewBatchConn(server)
	if err != nil {
		t.Fatal(err)
	}
	cbc, err := NewBatchConn(client)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	out := NewBatch(n, 64)
	for i := 0; i < n; i++ {
		payload := append(out.Buffer(i), []byte(fmt.Sprintf("req-%02d", i))...)
		out.Set(i, len(payload), Sockaddr{}) // connected socket: zero addr
	}
	if sent, err := cbc.SendBatch(out, n); err != nil || sent != n {
		t.Fatalf("client SendBatch sent %d err %v", sent, err)
	}

	in := NewBatch(n, 64)
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := map[string]Sockaddr{}
	for len(got) < n {
		k, err := sbc.RecvBatch(in)
		if err != nil {
			t.Fatalf("server RecvBatch after %d: %v", len(got), err)
		}
		for i := 0; i < k; i++ {
			if in.Addr(i).IsZero() {
				t.Fatalf("received datagram %q with zero source addr", in.Payload(i))
			}
			got[string(in.Payload(i))] = in.Addr(i)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := got[fmt.Sprintf("req-%02d", i)]; !ok {
			t.Fatalf("missing payload req-%02d; got %v", i, got)
		}
	}

	// Reply to each captured source address (unconnected sends).
	reply := NewBatch(n, 64)
	i := 0
	for msg, from := range got {
		payload := append(reply.Buffer(i), []byte("ack:"+msg)...)
		reply.Set(i, len(payload), from)
		i++
	}
	if sent, err := sbc.SendBatch(reply, n); err != nil || sent != n {
		t.Fatalf("server SendBatch sent %d err %v", sent, err)
	}
	cin := NewBatch(n, 64)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	acks := 0
	for acks < n {
		k, err := cbc.RecvBatch(cin)
		if err != nil {
			t.Fatalf("client RecvBatch after %d acks: %v", acks, err)
		}
		for j := 0; j < k; j++ {
			if string(cin.Payload(j)[:4]) != "ack:" {
				t.Fatalf("bad ack %q", cin.Payload(j))
			}
			acks++
		}
	}
}

// TestRecvBatchHonorsDeadline: InterruptReads unblocks a blocked
// batched receive — the mechanism serving shutdown relies on to stop
// intake while keeping the socket writable.
func TestRecvBatchHonorsDeadline(t *testing.T) {
	server, _ := udpPair(t)
	bc, err := NewBatchConn(server)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := bc.RecvBatch(NewBatch(4, 64))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := InterruptReads(server); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RecvBatch returned nil after deadline interrupt")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvBatch still blocked after InterruptReads")
	}
}

// TestPacketBatchConn exercises the portable PacketConn adapter:
// single-datagram receive with source capture and addressed sends.
func TestPacketBatchConn(t *testing.T) {
	server, client := udpPair(t)
	pbc := NewPacketBatchConn(server)
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	in := NewBatch(4, 64)
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	k, err := pbc.RecvBatch(in)
	if err != nil || k != 1 {
		t.Fatalf("RecvBatch k=%d err=%v", k, err)
	}
	if string(in.Payload(0)) != "ping" || in.Addr(0).IsZero() {
		t.Fatalf("got %q from %v", in.Payload(0), in.Addr(0))
	}
	out := NewBatch(2, 64)
	payload := append(out.Buffer(0), []byte("pong")...)
	out.Set(0, len(payload), in.Addr(0))
	// Slot 1 has a zero addr: the adapter must skip it, not fail.
	out.Set(1, 0, Sockaddr{})
	if sent, err := pbc.SendBatch(out, 2); err != nil || sent != 1 {
		t.Fatalf("SendBatch sent %d err %v", sent, err)
	}
	buf := make([]byte, 64)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := client.Read(buf)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("reply %q err %v", buf[:n], err)
	}
}

// TestListenReusePortGroup binds a group (where the platform supports
// it) and proves every member shares one address and each receives
// traffic addressed to it.
func TestListenReusePortGroup(t *testing.T) {
	n := 4
	if !ReusePortSockets {
		n = 1
	}
	conns, err := ListenReusePortGroup("udp", "127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if len(conns) != n {
		t.Fatalf("got %d sockets, want %d", len(conns), n)
	}
	addr := conns[0].LocalAddr().String()
	for _, c := range conns[1:] {
		if c.LocalAddr().String() != addr {
			t.Fatalf("group member on %s, want %s", c.LocalAddr(), addr)
		}
	}
	// Many distinct client flows: the kernel hashes each onto some
	// member; together the group must see every datagram.
	const flows = 32
	for i := 0; i < flows; i++ {
		c, err := net.Dial("udp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(c, "flow-%02d", i); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	seen := map[string]bool{}
	for _, c := range conns {
		c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		bc, err := NewBatchConn(c)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBatch(flows, 64)
		for time.Now().Before(deadline) {
			k, err := bc.RecvBatch(b)
			if err != nil {
				break // this member's queue is drained
			}
			for j := 0; j < k; j++ {
				seen[string(b.Payload(j))] = true
			}
			if len(seen) == flows {
				break
			}
		}
	}
	if len(seen) != flows {
		t.Fatalf("group delivered %d/%d flows", len(seen), flows)
	}
	if !ReusePortSockets {
		if _, err := ListenReusePortGroup("udp", "127.0.0.1:0", 2); err == nil {
			t.Fatal("multi-socket group accepted without SO_REUSEPORT support")
		}
	}
}

// TestSendBatchZeroAllocSteadyState gates the batched send path: once
// the Batch exists, sealing destinations and lengths into it and
// flushing via SendBatch must not allocate. (Linux batched path; the
// portable fallback shares the Batch bookkeeping but ReadFromUDP's
// address allocation is outside our control.)
func TestSendBatchZeroAllocSteadyState(t *testing.T) {
	server, client := udpPair(t)
	sbc, err := NewBatchConn(server)
	if err != nil {
		t.Fatal(err)
	}
	cbc, err := NewBatchConn(client)
	if err != nil {
		t.Fatal(err)
	}
	to, ok := SockaddrFromUDP(server.LocalAddr().(*net.UDPAddr))
	if !ok {
		t.Fatal("bad server addr")
	}
	_ = sbc
	const n = 16
	out := NewBatch(n, 64)
	drain := NewBatch(n, 64)
	payload := []byte("steady-state-datagram")
	send := func() {
		for i := 0; i < n; i++ {
			b := append(out.Buffer(i), payload...)
			out.Set(i, len(b), to)
		}
		if sent, err := cbc.SendBatch(out, n); err != nil || sent != n {
			panic(fmt.Sprintf("sent %d err %v", sent, err))
		}
		got := 0
		server.SetReadDeadline(time.Now().Add(5 * time.Second))
		for got < n {
			k, err := sbc.RecvBatch(drain)
			if err != nil {
				panic(err)
			}
			got += k
		}
	}
	send() // warm the path
	if !BatchSyscalls {
		t.Skip("fallback build: ReadFromUDP allocates per-datagram source addresses")
	}
	allocs := testing.AllocsPerRun(50, send)
	if allocs != 0 {
		t.Fatalf("batched send/recv cycle allocated %.1f times per run (GOOS=%s)", allocs, runtime.GOOS)
	}
}

// TestSendBatchGSO: with UDP segmentation offload on, same-destination
// runs collapse into segmented sends but each receiver still gets
// exactly its own datagrams with original boundaries — including a
// short slot ending a run.
func TestSendBatchGSO(t *testing.T) {
	if !BatchSyscalls {
		t.Skip("GSO rides the batched linux path")
	}
	sender, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sbc, err := NewBatchConn(sender)
	if err != nil {
		t.Fatal(err)
	}
	const seg = 32
	g, ok := DatagramConn(sbc).(interface{ EnableGSO(int) error })
	if !ok {
		t.Fatal("BatchConn lost its EnableGSO method")
	}
	if err := g.EnableGSO(seg); err != nil {
		t.Skipf("kernel without UDP_SEGMENT: %v", err)
	}

	recv := func() (*net.UDPConn, Sockaddr) {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		a, ok := SockaddrFromUDP(c.LocalAddr().(*net.UDPAddr))
		if !ok {
			t.Fatal("bad receiver addr")
		}
		return c, a
	}
	ra, aa := recv()
	rb, ab := recv()

	// Slots: 5 full-size to A, one short to A (ends the run), 3
	// full-size to B, 1 full-size to A again.
	type slot struct {
		to  Sockaddr
		len int
	}
	slots := []slot{{aa, seg}, {aa, seg}, {aa, seg}, {aa, seg}, {aa, seg}, {aa, 20}, {ab, seg}, {ab, seg}, {ab, seg}, {aa, seg}}
	b := NewBatch(len(slots), seg)
	for i, sl := range slots {
		p := b.Buffer(i)
		for j := 0; j < sl.len; j++ {
			p = append(p, byte(i))
		}
		b.Set(i, len(p), sl.to)
	}
	sent, err := sbc.SendBatch(b, len(slots))
	if err != nil || sent != len(slots) {
		t.Fatalf("SendBatch sent %d err %v", sent, err)
	}

	check := func(c *net.UDPConn, want []slot, wantIdx []int) {
		t.Helper()
		buf := make([]byte, seg+1)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		for k, idx := range wantIdx {
			n, err := c.Read(buf)
			if err != nil {
				t.Fatalf("datagram %d: %v", k, err)
			}
			if n != want[k].len || buf[0] != byte(idx) {
				t.Fatalf("datagram %d: len=%d first=%d, want len=%d first=%d", k, n, buf[0], want[k].len, idx)
			}
		}
	}
	check(ra, []slot{{aa, seg}, {aa, seg}, {aa, seg}, {aa, seg}, {aa, seg}, {aa, 20}, {aa, seg}}, []int{0, 1, 2, 3, 4, 5, 9})
	check(rb, []slot{{ab, seg}, {ab, seg}, {ab, seg}}, []int{6, 7, 8})

	// Oversize slot: explicit error, nothing sent.
	b2 := NewBatch(1, seg*2)
	p := b2.Buffer(0)
	for j := 0; j < seg+1; j++ {
		p = append(p, 0xee)
	}
	b2.Set(0, len(p), aa)
	if sent, err := sbc.SendBatch(b2, 1); err == nil || sent != 0 {
		t.Fatalf("oversize GSO slot: sent=%d err=%v, want error", sent, err)
	}
}

// TestSendBatchSkipsUnsendableSlot: one destination the kernel refuses
// (port 0) in the middle of a batch costs that slot alone — the slots
// on either side are delivered, the count excludes it, and the error is
// reported. With and without GSO, which groups the same slots into
// different headers.
func TestSendBatchSkipsUnsendableSlot(t *testing.T) {
	for _, gso := range []bool{false, true} {
		t.Run(fmt.Sprintf("gso=%v", gso), func(t *testing.T) {
			receiver, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer receiver.Close()
			sender, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer sender.Close()
			sbc, err := NewBatchConn(sender)
			if err != nil {
				t.Fatal(err)
			}
			const n, bad, size = 16, 7, 8
			if gso {
				g, ok := DatagramConn(sbc).(interface{ EnableGSO(int) error })
				if !ok || g.EnableGSO(size) != nil {
					t.Skip("fallback build, or a kernel without UDP_SEGMENT")
				}
			}
			to, ok := SockaddrFromUDP(receiver.LocalAddr().(*net.UDPAddr))
			if !ok {
				t.Fatal("bad receiver addr")
			}
			nowhere := to
			nowhere.Port = 0
			out := NewBatch(n, size)
			for i := 0; i < n; i++ {
				payload := append(out.Buffer(i), []byte(fmt.Sprintf("slot-%03d", i))...)
				dst := to
				if i == bad {
					dst = nowhere
				}
				out.Set(i, len(payload), dst)
			}
			sent, err := sbc.SendBatch(out, n)
			if sent != n-1 || err == nil {
				t.Fatalf("SendBatch sent %d err %v, want %d and the port-0 error", sent, err, n-1)
			}
			receiver.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 64)
			for i := 0; i < n; i++ {
				if i == bad {
					continue
				}
				k, err := receiver.Read(buf)
				if err != nil {
					t.Fatalf("after %d datagrams: %v", i, err)
				}
				if want := fmt.Sprintf("slot-%03d", i); string(buf[:k]) != want {
					t.Fatalf("got %q, want %q", buf[:k], want)
				}
			}
		})
	}
}

// TestRecvBatchAfterShortReceiveAndGSOSend: one Batch serves a
// one-datagram receive, a GSO send of short datagrams, another
// one-datagram receive and a receive of a full batch. Each receive
// must see every datagram whole, at its own slot and with its source,
// whatever the send or the receive before left in the Batch's headers:
// the send shortened the payload buffers and grouped slots into one
// segmented header, and a receive leaves the kernel's name lengths.
func TestRecvBatchAfterShortReceiveAndGSOSend(t *testing.T) {
	if !BatchSyscalls {
		t.Skip("GSO rides the batched linux path")
	}
	const n, size, short = 8, 64, 10
	server, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	sbc, err := NewBatchConn(server)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := DatagramConn(sbc).(interface{ EnableGSO(int) error })
	if !ok {
		t.Fatal("BatchConn lost its EnableGSO method")
	}
	if err := g.EnableGSO(size); err != nil {
		t.Skipf("kernel without UDP_SEGMENT: %v", err)
	}
	peerAddr, _ := SockaddrFromUDP(peer.LocalAddr().(*net.UDPAddr))
	b := NewBatch(n, size)

	// recv has the peer send k full-size datagrams, the i-th filled
	// with i+tag, and receives them into b.
	dst := server.LocalAddr().(*net.UDPAddr)
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	recv := func(k, tag int) {
		t.Helper()
		full := func(i int) []byte { return bytes.Repeat([]byte{byte(i + tag)}, size) }
		for i := 0; i < k; i++ {
			if _, err := peer.WriteToUDP(full(i), dst); err != nil {
				t.Fatal(err)
			}
		}
		for got := 0; got < k; {
			m, err := sbc.RecvBatch(b)
			if err != nil {
				t.Fatalf("receive of %d, after %d: %v", k, got, err)
			}
			for i := 0; i < m; i++ {
				if want := full(got + i); !bytes.Equal(b.Payload(i), want) {
					t.Fatalf("receive of %d: datagram %d is % x, want % x", k, got+i, b.Payload(i), want)
				}
				if b.Addr(i) != peerAddr {
					t.Fatalf("receive of %d: datagram %d from %v, want %v", k, got+i, b.Addr(i), peerAddr)
				}
			}
			got += m
		}
	}

	recv(1, 10)
	for i := 0; i < n; i++ {
		b.Set(i, len(append(b.Buffer(i), bytes.Repeat([]byte{byte(i)}, short)...)), peerAddr)
	}
	if sent, err := sbc.SendBatch(b, n); err != nil || sent != n {
		t.Fatalf("SendBatch sent %d err %v", sent, err)
	}
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, size)
	for i := 0; i < n; i++ {
		if k, err := peer.Read(buf); err != nil || k != short || buf[0] != byte(i) {
			t.Fatalf("sent datagram %d: len %d first %d err %v", i, k, buf[0], err)
		}
	}
	recv(1, 20)
	recv(n, 30)
}
