//go:build linux && amd64

package transport

import (
	"errors"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestBatchConnNonblockingPerCall clears O_NONBLOCK on a BatchConn's
// fd, as a dup through UDPConn.File does, and checks that the batched
// receive still waits in the netpoller: each recvmmsg must be
// non-blocking by itself (MSG_DONTWAIT), or it parks its thread in the
// kernel, where no read deadline reaches it.
func TestBatchConnNonblockingPerCall(t *testing.T) {
	server, client := udpPair(t)
	bc, err := NewBatchConn(server)
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := bc.rc.Control(func(fd uintptr) {
		serr = syscall.SetNonblock(int(fd), false)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatalf("clear O_NONBLOCK: %v", serr)
	}

	b := NewBatch(4, 64)
	server.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	done := make(chan error, 1)
	go func() {
		_, err := bc.RecvBatch(b)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("RecvBatch on an empty socket = %v, want the read deadline", err)
		}
	case <-time.After(time.Second):
		// The receive is parked in the kernel until the batch is full:
		// fill it, so the socket can close and the test fails instead of
		// stalling.
		for i := 0; i < b.Size(); i++ {
			if _, err := client.Write([]byte("release")); err != nil {
				t.Fatalf("RecvBatch ignored its 50ms deadline for 1s; releasing it: %v", err)
			}
		}
		<-done
		t.Fatal("RecvBatch ignored its 50ms deadline for 1s: the call blocked in the kernel")
	}

	// The blocking fd still serves traffic through the poller.
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := bc.RecvBatch(b)
	if err != nil || n != 1 || string(b.Payload(0)) != "ping" {
		t.Fatalf("RecvBatch = %d, %v; want the one datagram", n, err)
	}
}
