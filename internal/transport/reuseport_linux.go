//go:build linux

package transport

import (
	"context"
	"fmt"
	"net"
	"syscall"
)

// soREUSEPORT is SO_REUSEPORT (uniform across Linux architectures);
// the frozen syscall package predates it.
const soREUSEPORT = 0xf

// ReusePortSockets reports whether this platform can bind several
// sockets to one UDP address (kernel receive-side scaling across the
// group).
const ReusePortSockets = true

// ListenReusePortGroup binds n UDP sockets to the same address with
// SO_REUSEPORT: the kernel hashes each client flow (4-tuple) onto one
// member, spreading decode/authenticate work across the sockets'
// receive goroutines while every member sends from the identical
// source address. addr may carry port 0; the port the first bind
// receives is reused for the rest. On failure, already-bound sockets
// are closed.
func ListenReusePortGroup(network, addr string, n int) ([]*net.UDPConn, error) {
	if n <= 0 {
		n = 1
	}
	lc := net.ListenConfig{Control: func(network, address string, c syscall.RawConn) error {
		var serr error
		err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soREUSEPORT, 1)
		})
		if err != nil {
			return err
		}
		return serr
	}}
	conns := make([]*net.UDPConn, 0, n)
	bindAddr := addr
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), network, bindAddr)
		if err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("transport: reuseport bind %d/%d on %q: %w", i+1, n, bindAddr, err)
		}
		uc, ok := pc.(*net.UDPConn)
		if !ok {
			pc.Close()
			closeAll(conns)
			return nil, fmt.Errorf("transport: %q is not a UDP network", network)
		}
		conns = append(conns, uc)
		if i == 0 {
			// Pin the concrete port the kernel chose for the group.
			bindAddr = uc.LocalAddr().String()
		}
	}
	return conns, nil
}

func closeAll(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}
