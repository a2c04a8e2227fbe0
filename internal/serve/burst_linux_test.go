//go:build linux && amd64

package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

// burstChildEnv turns the test binary into the serving child of
// TestLiveServerBurstVoluntarySwitches.
const burstChildEnv = "TRIAD_SERVE_BURST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(burstChildEnv) != "" {
		os.Exit(runBurstChild())
	}
	os.Exit(m.Run())
}

// runBurstChild serves on loopback, prints the bound address and
// serves until its stdin closes.
func runBurstChild() int {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv, err := NewLiveServer(LiveConfig{
		Conn:     conn,
		Key:      liveTestKey(),
		SenderID: 150,
		Server:   Config{Clock: ClockFunc(func() (int64, error) { return 1234567890, nil })},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(srv.LocalAddr())
	_, _ = io.Copy(io.Discard, os.Stdin)
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// volCtxSwitches sums voluntary_ctxt_switches over every thread of pid.
func volCtxSwitches(t *testing.T, pid int) int64 {
	t.Helper()
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		t.Fatalf("threads of %d: %v", pid, err)
	}
	var sum int64
	for _, p := range tasks {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		_, rest, ok := strings.Cut(string(b), "\nvoluntary_ctxt_switches:")
		if !ok {
			t.Fatalf("%s: no voluntary_ctxt_switches", p)
		}
		line, _, _ := strings.Cut(rest, "\n")
		n, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		sum += n
	}
	return sum
}

// TestLiveServerBurstVoluntarySwitches bounds the threads' voluntary
// context switches per served burst of a GOMAXPROCS=1 LiveServer. A
// burst costs its serving thread one wait in the netpoller; batched
// syscalls issued through the runtime's blocking-syscall path (Syscall6
// rather than RawSyscall6) add a sysmon wake-up per burst and its 20µs
// polls while the burst is served.
func TestLiveServerBurstVoluntarySwitches(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary as a server and paces 400 bursts")
	}
	const (
		warmup   = 50
		bursts   = 400
		burstLen = 20
		gap      = 500 * time.Microsecond
		// Measured on a 2-vCPU host: 0.92–0.97 switches per burst
		// through RawSyscall6, 2.58–2.70 through Syscall6.
		maxPerBurst = 1.75
	)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	child := exec.Command(exe, "-test.run=^$")
	child.Env = append(os.Environ(), burstChildEnv+"=1", "GOMAXPROCS=1")
	child.Stderr = os.Stderr
	stdin, err := child.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close()
		if err := child.Wait(); err != nil {
			t.Errorf("server child: %v", err)
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("server child address: %v", err)
	}
	srvAddr, err := net.ResolveUDPAddr("udp", strings.TrimSpace(line))
	if err != nil {
		t.Fatal(err)
	}

	key := liveTestKey()
	sealer, err := wire.NewSealer(key, 9001)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	client, err := transport.NewBatchConn(cc)
	if err != nil {
		t.Fatal(err)
	}
	// One GSO send queues a whole burst on the server's socket at once,
	// so a burst is one receive however fast the server thread wakes.
	_ = client.EnableGSO(SealedRequestSize)
	to, ok := transport.SockaddrFromUDP(srvAddr)
	if !ok {
		t.Fatalf("server address %v", srvAddr)
	}
	out := transport.NewBatch(burstLen, SealedRequestSize)
	in := transport.NewBatch(recvSlots, SealedResponseSize)
	var plain [wire.TimeRequestSize]byte
	seq := uint64(0)
	// burst sends burstLen requests in one sendmmsg and waits for every
	// reply, so each burst is served before the next one is sent.
	burst := func() {
		for i := 0; i < burstLen; i++ {
			seq++
			wire.TimeRequest{ClientID: 9001, Seq: seq}.MarshalInto(plain[:])
			out.Set(i, len(sealer.SealDatagramAppend(out.Buffer(i), plain[:])), to)
		}
		if n, err := client.SendBatch(out, burstLen); err != nil || n != burstLen {
			t.Fatalf("send burst: %d, %v", n, err)
		}
		cc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for got := 0; got < burstLen; {
			n, err := client.RecvBatch(in)
			if err != nil {
				t.Fatalf("burst replies after %d/%d: %v", got, burstLen, err)
			}
			got += n
		}
	}
	for i := 0; i < warmup; i++ {
		burst()
	}
	before := volCtxSwitches(t, child.Process.Pid)
	next := time.Now()
	for i := 0; i < bursts; i++ {
		next = next.Add(gap)
		burst()
		time.Sleep(time.Until(next))
	}
	switches := volCtxSwitches(t, child.Process.Pid) - before
	perBurst := float64(switches) / bursts
	t.Logf("%d voluntary context switches over %d bursts: %.2f per burst (bound %.2f)",
		switches, bursts, perBurst, maxPerBurst)
	if perBurst > maxPerBurst {
		t.Errorf("%.2f voluntary context switches per served burst, want at most %.2f: "+
			"is the batched path back on the blocking-syscall protocol?", perBurst, maxPerBurst)
	}
}
