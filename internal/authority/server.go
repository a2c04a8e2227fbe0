package authority

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Server is the live UDP binding of the Time Authority, the counterpart
// of cmd/timeauthority. It answers encrypted TimeRequests over a
// net.PacketConn, observing each request's sleep before replying.
type Server struct {
	auth *Authority
	conn net.PacketConn

	mu      sync.Mutex
	timers  map[*time.Timer]struct{}
	closed  bool
	done    chan struct{}
	started bool
}

// NewServer creates a live TA bound to the given packet connection.
// The server takes ownership of conn and closes it on Close.
func NewServer(conn net.PacketConn, key []byte, senderID uint32) (*Server, error) {
	return NewServerClock(conn, key, senderID, func() int64 { return time.Now().UnixNano() })
}

// NewServerClock creates a live TA with an explicit reference clock —
// the integration tests' hook for running a deliberately lying
// authority against a quorum of honest ones.
func NewServerClock(conn net.PacketConn, key []byte, senderID uint32, clock Clock) (*Server, error) {
	auth, err := New(key, senderID, clock)
	if err != nil {
		return nil, err
	}
	return &Server{
		auth:   auth,
		conn:   conn,
		timers: make(map[*time.Timer]struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Authority exposes the underlying TA (for served-count metrics).
func (s *Server) Authority() *Authority { return s.auth }

// LocalAddr reports the bound address.
func (s *Server) LocalAddr() net.Addr { return s.conn.LocalAddr() }

// Serve reads datagrams until the connection is closed. It is typically
// run in its own goroutine; it returns nil after Close.
func (s *Server) Serve() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("authority: Serve called twice")
	}
	s.started = true
	s.mu.Unlock()
	defer close(s.done)

	buf := make([]byte, 64*1024)
	for {
		n, from, err := s.conn.ReadFrom(buf)
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("authority: read: %w", err)
		}
		datagram := make([]byte, n)
		copy(datagram, buf[:n])
		s.handle(datagram, from)
	}
}

// handle processes one datagram. Replies are scheduled on timers so a
// long requested sleep never blocks the read loop. Process mutates the
// authority's replay state, so handle serializes around it.
func (s *Server) handle(datagram []byte, from net.Addr) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	sleep, reply, ok := s.auth.Process(datagram)
	if !ok {
		s.mu.Unlock()
		return
	}
	// Still under s.mu: a zero sleep fires at once, and the callback
	// must not read t, or look for it in s.timers, before both are set.
	var t *time.Timer
	t = time.AfterFunc(sleep, func() {
		s.mu.Lock()
		delete(s.timers, t)
		closed := s.closed
		var out []byte
		if !closed {
			out = reply()
		}
		s.mu.Unlock()
		if closed {
			return
		}
		// Write errors are expected on shutdown races; the client
		// retries, as with any UDP time service.
		_, _ = s.conn.WriteTo(out, from)
	})
	s.timers[t] = struct{}{}
	s.mu.Unlock()
}

// Close stops the server: pending delayed replies are cancelled, the
// connection is closed, and Serve returns. Close is idempotent and
// waits for the read loop (if started) to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		started := s.started
		s.mu.Unlock()
		if started {
			<-s.done
		}
		return nil
	}
	s.closed = true
	for t := range s.timers {
		t.Stop()
	}
	s.timers = make(map[*time.Timer]struct{})
	started := s.started
	s.mu.Unlock()

	err := s.conn.Close()
	if started {
		<-s.done
	}
	return err
}
