package triadtime

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
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
