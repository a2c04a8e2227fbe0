package triadtime

import (
	"bufio"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// calibratedLiveNode starts a time authority and one node on the
// shortened calibration ladder and waits until the node serves.
func calibratedLiveNode(t *testing.T) *LiveNode {
	t.Helper()
	if testing.Short() {
		t.Skip("wall-clock bound")
	}
	ta, err := NewAuthorityServer("127.0.0.1:0", labKey(), 100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ta.Close() })
	node, err := NewLiveNode(LiveConfig{
		Key:                  labKey(),
		ID:                   1,
		Listen:               "127.0.0.1:0",
		Directory:            map[NodeID]string{100: ta.LocalAddr().String()},
		Authority:            100,
		CalibSleeps:          []time.Duration{0, 100 * time.Millisecond},
		CalibSamplesPerSleep: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	deadline := time.Now().Add(20 * time.Second)
	for node.State() != StateOK {
		if time.Now().After(deadline) {
			t.Fatalf("live node never calibrated (state %v)", node.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return node
}

// scrapeServed reads triad_node_served_total off /metrics.
func scrapeServed(t *testing.T, addr string) uint64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "triad_node_served_total "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no triad_node_served_total in /metrics")
	return 0
}

// TestLiveStatusScrapeServesNothing: /metrics and /status read the
// trusted clock without serving from it, so scrapes with no client
// traffic leave served_total where it was; a served timestamp still
// counts.
func TestLiveStatusScrapeServesNothing(t *testing.T) {
	node := calibratedLiveNode(t)
	addr, err := node.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	first := scrapeServed(t, addr.String())
	if snap := node.Snapshot(); !snap.Available || snap.TrustedNanos == 0 {
		t.Fatalf("snapshot of a serving node: %+v", snap)
	}
	if second := scrapeServed(t, addr.String()); second != first {
		t.Fatalf("served_total moved %d -> %d across scrapes", first, second)
	}
	if _, err := node.TrustedNow(); err != nil {
		t.Fatal(err)
	}
	if third := scrapeServed(t, addr.String()); third != first+1 {
		t.Fatalf("served_total %d after one serve, want %d", third, first+1)
	}
}

// TestLiveNodeReadsFailAfterClose: trusted reads refuse once the node
// is closed, as they did when every read was a loop round trip.
func TestLiveNodeReadsFailAfterClose(t *testing.T) {
	node := calibratedLiveNode(t)
	if _, err := node.TrustedNow(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if ts, err := node.TrustedNow(); err == nil {
		t.Fatalf("TrustedNow served %d after Close", ts.Nanos)
	}
	if _, err := node.TrustedNanos(); err == nil {
		t.Fatal("TrustedNanos served after Close")
	}
	if s := node.State(); s == StateOK {
		t.Fatal("state OK after Close")
	}
}

// TestLiveServeMonotonicAcrossSockets is the serving clamp end to end
// on a calibrated node's published snapshot: client flows spread over
// two reuseport sockets while another goroutine reads the node's
// trusted time directly. One shard with BatchMax 1 gives every reply a
// trusted read of its own, and each flow keeps one request in flight,
// so a flow's replies come from successive reads. Every flow's
// timestamps must then strictly increase, and no timestamp may be
// handed out twice, whichever socket or reader it went to.
func TestLiveServeMonotonicAcrossSockets(t *testing.T) {
	node := calibratedLiveNode(t)
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i + 31)
	}
	addr, err := node.ServeClients(ClientServeConfig{Listen: "127.0.0.1:0", Key: key, Sockets: 2, Shards: 1, BatchMax: 1})
	if err != nil {
		t.Skipf("two-socket endpoint: %v", err)
	}

	const flows = 8
	stamps := make([][]int64, flows+1) // the last slot: direct reads
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for f := 0; f < flows; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stamps[f] = flowStamps(t, addr.String(), key, uint64(7000+f), stop)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ns, err := node.TrustedNanos(); err == nil {
				stamps[flows] = append(stamps[flows], ns)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	seen := map[int64]bool{}
	var replies uint64
	for f, got := range stamps {
		if len(got) < 2 {
			t.Fatalf("reader %d got %d timestamps", f, len(got))
		}
		for i, ns := range got {
			if i > 0 && ns <= got[i-1] {
				t.Fatalf("reader %d: timestamp %d after %d", f, ns, got[i-1])
			}
			if seen[ns] {
				t.Fatalf("timestamp %d handed out twice", ns)
			}
			seen[ns] = true
		}
		if f < flows {
			replies += uint64(len(got))
		}
	}
	if c := node.ServeCounters(); c.Served != replies {
		t.Fatalf("clients read %d replies, endpoint served %d: %s", replies, c.Served, c.Summary())
	}
}

// flowStamps is one closed-loop client: it sends a stamp request, waits
// for its reply and records the served time, until stop closes.
func flowStamps(t *testing.T, addr string, key []byte, id uint64, stop chan struct{}) []int64 {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer conn.Close()
	sealer, err := NewClientSealer(key, uint32(id))
	if err != nil {
		t.Error(err)
		return nil
	}
	opener, err := NewClientOpener(key)
	if err != nil {
		t.Error(err)
		return nil
	}
	var out []int64
	buf := make([]byte, 2048)
	for seq := uint64(1); ; seq++ {
		select {
		case <-stop:
			return out
		default:
		}
		if _, err := conn.Write(sealer.SealRequest(nil, TimeRequest{ClientID: id, Seq: seq})); err != nil {
			t.Errorf("client %d: %v", id, err)
			return out
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Errorf("client %d seq %d: no reply: %v", id, seq, err)
			return out
		}
		resp, err := opener.OpenResponse(buf[:n])
		if err != nil || resp.Status != StatusOK || resp.ClientID != id || resp.Seq != seq {
			t.Errorf("client %d seq %d: reply %+v, %v", id, seq, resp, err)
			return out
		}
		out = append(out, resp.Nanos)
	}
}
