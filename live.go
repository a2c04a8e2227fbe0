package triadtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"triadtime/internal/authority"
	"triadtime/internal/commit"
	"triadtime/internal/core"
	"triadtime/internal/engine"
	"triadtime/internal/metrics"
	"triadtime/internal/resilient"
	"triadtime/internal/serve"
	"triadtime/internal/transport"
	"triadtime/tsa"
)

// LiveConfig configures a live (UDP) Triad node.
type LiveConfig struct {
	// Key is the cluster's pre-shared 32-byte AES-256 key.
	Key []byte
	// ID is this node's identity.
	ID NodeID
	// Listen is the UDP address to bind, e.g. "0.0.0.0:7101".
	Listen string
	// Directory maps every participant (peers and authority) to its
	// UDP address.
	Directory map[NodeID]string
	// Peers lists the other Triad nodes.
	Peers []NodeID
	// Authority is the Time Authority's identity.
	Authority NodeID
	// Authorities lists the Time Authorities for multi-authority quorum
	// calibration (Marzullo consensus over per-authority confidence
	// intervals). With two or more entries the node accepts a reference
	// only when a quorum of authorities agrees; Authority may then be
	// left zero (the first entry is the default). Every entry must
	// appear in Directory.
	Authorities []NodeID
	// QuorumMinAgree overrides the quorum agreement rule: accept an
	// intersection supported by at least this many authorities instead
	// of a strict majority. 0 keeps the majority rule. A 2-authority
	// deployment sets 1 to survive one authority loss.
	QuorumMinAgree int
	// QuorumRecheck overrides the steady-state quorum revalidation
	// period (default 10s). Only meaningful with multiple Authorities.
	QuorumRecheck time.Duration
	// AEXPeriod optionally delivers synthetic AEXs at this period (a
	// stand-in for the OS interrupts real enclaves observe through
	// AEX-Notify). Zero disables them.
	AEXPeriod time.Duration
	// Hardened selects the Section V resilient protocol instead of the
	// original Triad.
	Hardened bool

	// CalibSleeps overrides the original protocol's calibration sleep
	// ladder (default {0, 1s}). Shorter sleeps trade calibration
	// accuracy for startup latency — useful in tests and demos. Ignored
	// when Hardened.
	CalibSleeps []time.Duration
	// CalibSamplesPerSleep overrides how many uninterrupted samples the
	// original protocol collects per sleep value (default 4). Ignored
	// when Hardened.
	CalibSamplesPerSleep int
	// CalibWindow overrides the hardened variant's two-exchange
	// calibration window (default 8s). Ignored unless Hardened.
	CalibWindow time.Duration
}

// LiveNode is a running Triad participant bound to a UDP socket. It is
// safe for concurrent use. Trusted reads (TrustedNow, TrustedNanos,
// State, FCalib) never wait for the protocol loop: they read the clock
// snapshot the loop publishes at each mutation. Everything else is
// serialized onto the platform's dispatch goroutine.
type LiveNode struct {
	platform  *transport.Platform
	node      *engine.Node
	clock     engine.SharedClock
	closed    atomic.Bool
	id        NodeID
	statusSrv *http.Server

	clientSrv  *serve.LiveServer
	clientWait *metrics.Histogram
	vault      *commit.Vault
}

// NewLiveNode binds the socket, builds the node (original or hardened)
// and starts the protocol.
func NewLiveNode(cfg LiveConfig) (*LiveNode, error) {
	conn, err := net.ListenPacket("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("triadtime: listen %q: %w", cfg.Listen, err)
	}
	platform, err := transport.New(transport.Config{
		Conn:      conn,
		Directory: cfg.Directory,
		AEXPeriod: cfg.AEXPeriod,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	ln := &LiveNode{platform: platform, id: cfg.ID}
	shared := engine.Config{
		Key:            cfg.Key,
		Addr:           cfg.ID,
		Peers:          cfg.Peers,
		Authority:      cfg.Authority,
		Authorities:    cfg.Authorities,
		QuorumMinAgree: cfg.QuorumMinAgree,
		QuorumRecheck:  cfg.QuorumRecheck,
	}
	var buildErr error
	ok := platform.Do(func() {
		if cfg.Hardened {
			ln.node, buildErr = resilient.NewNode(platform, resilient.Config{
				Config:      shared,
				CalibWindow: cfg.CalibWindow,
			})
		} else {
			ln.node, buildErr = core.NewNode(platform, core.Config{
				Config:               shared,
				CalibSleeps:          cfg.CalibSleeps,
				CalibSamplesPerSleep: cfg.CalibSamplesPerSleep,
			})
		}
	})
	if !ok {
		platform.Close()
		return nil, fmt.Errorf("triadtime: platform closed during setup")
	}
	if buildErr != nil {
		platform.Close()
		return nil, buildErr
	}
	ln.clock = ln.node.SharedClock()
	platform.Do(ln.node.Start)
	return ln, nil
}

// errNodeClosed refuses reads once Close has begun.
var errNodeClosed = errors.New("triadtime: node closed")

// TrustedNow serves one trusted timestamp. It returns ErrUnavailable
// while the node is tainted or calibrating — including from the moment
// InjectAEX (or the synthetic AEX generator) hands over an AEX — and
// fails once the node is closed.
func (ln *LiveNode) TrustedNow() (Timestamp, error) {
	ts, err := ln.TrustedNanos()
	return Timestamp{Nanos: ts}, err
}

// TrustedNanos serves one trusted timestamp as raw nanoseconds — the
// form application toolkits (tsa.Clock, lease.Clock) consume.
//
//triad:hotpath
func (ln *LiveNode) TrustedNanos() (int64, error) {
	if ln.closed.Load() {
		return 0, errNodeClosed
	}
	return ln.clock.TrustedNow()
}

// State reports the node's protocol state: StateTainted from the moment
// an AEX is handed over while the node serves, and the zero State once
// the node is closed.
func (ln *LiveNode) State() State {
	if ln.closed.Load() {
		return 0
	}
	return ln.clock.State()
}

// FCalib reports the calibrated TSC rate (0 before calibration).
func (ln *LiveNode) FCalib() float64 { return ln.clock.FCalib() }

// LocalAddr reports the bound UDP address.
func (ln *LiveNode) LocalAddr() net.Addr { return ln.platform.LocalAddr() }

// Snapshot is a point-in-time view of a live node, for operational
// monitoring.
type Snapshot struct {
	State        string  `json:"state"`
	FCalibHz     float64 `json:"fCalibHz"`
	TrustedNanos int64   `json:"trustedNanos,omitempty"`
	Available    bool    `json:"available"`
	AEXCount     int     `json:"aexCount"`
	// Counters carries the node's cumulative protocol counters. Both
	// variants report the same set; the hardening tallies (rejections,
	// probes, gossip) stay zero on an original-protocol node.
	Counters Counters `json:"counters"`
}

// Snapshot captures the node's current status. It reads the clock
// without serving a timestamp, so scrapes move neither the monotonic
// clamp nor the Served counter.
func (ln *LiveNode) Snapshot() Snapshot {
	var s Snapshot
	ln.platform.Do(func() {
		s.Counters = ln.node.Counters()
		s.AEXCount = ln.platform.AEXCount()
	})
	s.State = ln.clock.State().String()
	s.FCalibHz = ln.clock.FCalib()
	s.TrustedNanos, s.Available = ln.clock.Reading()
	return s
}

// ServeStatus exposes the node's Snapshot as JSON over HTTP at /status
// and a Prometheus-style text exposition at /metrics. It returns the
// bound listener address; the server stops when the node closes.
func (ln *LiveNode) ServeStatus(listen string) (net.Addr, error) {
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("triadtime: status listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(ln.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s := ln.Snapshot()
		available := 0
		if s.Available {
			available = 1
		}
		fmt.Fprintf(w, "triad_node_available %d\n", available)
		fmt.Fprintf(w, "triad_node_fcalib_hz %g\n", s.FCalibHz)
		fmt.Fprintf(w, "triad_node_aex_total %d\n", s.AEXCount)
		fmt.Fprintf(w, "triad_node_trusted_nanos %d\n", s.TrustedNanos)
		fmt.Fprintf(w, "triad_node_ta_refs_total %d\n", s.Counters.TAReferences)
		fmt.Fprintf(w, "triad_node_peer_untaints_total %d\n", s.Counters.PeerUntaints)
		fmt.Fprintf(w, "triad_node_served_total %d\n", s.Counters.Served)
		fmt.Fprintf(w, "triad_node_rejected_peers_total %d\n", s.Counters.RejectedPeers)
		fmt.Fprintf(w, "triad_node_rtt_rejections_total %d\n", s.Counters.RTTRejections)
		fmt.Fprintf(w, "triad_node_probes_total %d\n", s.Counters.Probes)
		if ln.clientSrv != nil {
			c := ln.clientSrv.Counters()
			fmt.Fprintf(w, "triad_serve_received_total %d\n", c.Received)
			fmt.Fprintf(w, "triad_serve_served_total %d\n", c.Served)
			fmt.Fprintf(w, "triad_serve_shed_queue_total %d\n", c.ShedQueueFull)
			fmt.Fprintf(w, "triad_serve_shed_ratelimit_total %d\n", c.ShedRateLimited)
			fmt.Fprintf(w, "triad_serve_unavailable_total %d\n", c.Unavailable)
			fmt.Fprintf(w, "triad_serve_tokens_issued_total %d\n", c.TokensIssued)
			fmt.Fprintf(w, "triad_serve_batches_total %d\n", c.Batches)
			fmt.Fprintf(w, "triad_serve_send_errors_total %d\n", c.SendErrors)
			fmt.Fprintf(w, "triad_serve_recv_errors_total %d\n", c.RecvErrors)
			fmt.Fprintf(w, "triad_serve_oversize_drops_total %d\n", c.OversizeDrops)
			fmt.Fprintf(w, "triad_serve_auth_fail_drops_total %d\n", c.AuthFailDrops)
			fmt.Fprintf(w, "triad_serve_replay_drops_total %d\n", c.ReplayDrops)
			fmt.Fprintf(w, "triad_serve_bad_len_drops_total %d\n", c.BadLenDrops)
			fmt.Fprintf(w, "triad_serve_bad_kind_drops_total %d\n", c.BadKindDrops)
			snap := ln.clientWait.Snapshot()
			fmt.Fprintf(w, "triad_serve_queue_wait_count %d\n", snap.Count)
			for _, q := range []float64{0.5, 0.9, 0.99} {
				fmt.Fprintf(w, "triad_serve_queue_wait_nanos{quantile=\"%g\"} %d\n", q, snap.Quantile(q))
			}
		}
		if ln.vault != nil {
			cc := ln.vault.Counters()
			fmt.Fprintf(w, "triad_commit_epoch %d\n", ln.vault.Epoch())
			fmt.Fprintf(w, "triad_commit_locks_issued_total %d\n", cc.LocksIssued)
			fmt.Fprintf(w, "triad_commit_unlocks_granted_total %d\n", cc.UnlocksGranted)
			fmt.Fprintf(w, "triad_commit_unlocks_refused_early_total %d\n", cc.UnlocksRefusedEarly)
			fmt.Fprintf(w, "triad_commit_unlocks_refused_fenced_total %d\n", cc.UnlocksRefusedFenced)
			fmt.Fprintf(w, "triad_commit_unlocks_refused_degraded_total %d\n", cc.UnlocksRefusedDegraded)
			fmt.Fprintf(w, "triad_commit_unlocks_refused_unavailable_total %d\n", cc.UnlocksRefusedUnavailable)
			fmt.Fprintf(w, "triad_commit_forged_tokens_total %d\n", cc.UnlocksRefusedForged)
			fmt.Fprintf(w, "triad_commit_anchor_rollbacks_total %d\n", cc.AnchorRollbacks)
			fmt.Fprintf(w, "triad_commit_clock_rollbacks_total %d\n", cc.ClockRollbacks)
			fmt.Fprintf(w, "triad_commit_persist_errors_total %d\n", cc.PersistErrors)
			fmt.Fprintf(w, "triad_commit_restarts_total %d\n", cc.Restarts)
		}
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(l) }()
	ln.statusSrv = srv
	return l.Addr(), nil
}

// InjectAEX severs time continuity once, as an OS interrupt would.
func (ln *LiveNode) InjectAEX() { ln.platform.InjectAEX() }

// ClientServeConfig configures a node's client-facing timestamp
// service (see internal/serve): sealed TimeRequest/TimeResponse
// datagrams on their own UDP socket and key, batched against the
// node's trusted clock.
type ClientServeConfig struct {
	// Listen is the UDP address for client traffic, e.g. "0.0.0.0:7201"
	// — a separate socket from the protocol's.
	Listen string
	// Key seals client traffic. Deliberately distinct from the cluster
	// key: client credentials must not open protocol datagrams.
	Key []byte
	// Sockets is how many SO_REUSEPORT sockets share the client port —
	// one receive goroutine each, so request authentication scales
	// across cores. 0 or 1 binds a single socket; values above 1
	// require platform support (Linux).
	Sockets int
	// TSAKey, when set, enables RFC3161-style token issuance for
	// requests carrying wire.FlagWantToken.
	TSAKey []byte
	// CommitAnchor, when set, enables the time-locked commitment
	// subsystem (wire kinds 8-10): the path names the vault's persisted
	// monotonic anchor file, which carries the lease epoch and trusted
	// high-water mark across restarts. Requires TSAKey — commitment
	// tokens are HMAC-bound to it (domain-separated, so sharing the key
	// with the stamper is safe). The vault vouches for unlocks only
	// while the node's state is OK: Degraded holdover serves timestamps
	// but never vouches.
	CommitAnchor string
	// RatePerClient, Shards, QueueDepth and BatchMax tune admission
	// control and batching; zero values use serve's defaults.
	RatePerClient        float64
	Shards               int
	QueueDepth, BatchMax int
}

// ServeClients starts the client-facing serving endpoint. Timestamps
// come from this node's TrustedNow — one snapshot read per drain pass,
// amortized across every response it yields. Returns the bound UDP address; the
// endpoint stops when the node closes. Call at most once.
func (ln *LiveNode) ServeClients(cfg ClientServeConfig) (net.Addr, error) {
	if ln.clientSrv != nil {
		return nil, fmt.Errorf("triadtime: ServeClients called twice")
	}
	clock := serve.ClockFunc(ln.TrustedNanos)
	var stamper *tsa.Stamper
	var err error
	if cfg.TSAKey != nil {
		stamper, err = tsa.New(tsa.ClockFunc(ln.TrustedNanos), cfg.TSAKey)
		if err != nil {
			return nil, err
		}
	}
	var vault *commit.Vault
	if cfg.CommitAnchor != "" {
		if cfg.TSAKey == nil {
			return nil, fmt.Errorf("triadtime: CommitAnchor requires TSAKey (commitment tokens are bound to it)")
		}
		vault, err = commit.Open(commit.Config{
			Clock: commit.ClockFunc(ln.TrustedNanos),
			Vouch: func() bool { return ln.State() == StateOK },
			Key:   cfg.TSAKey,
			Store: commit.NewFileStore(cfg.CommitAnchor),
		})
		if err != nil {
			return nil, fmt.Errorf("triadtime: commit vault: %w", err)
		}
	}
	wait := metrics.NewLatencyHistogram()
	srv, err := serve.NewLiveServer(serve.LiveConfig{
		Listen:   cfg.Listen,
		Sockets:  cfg.Sockets,
		Key:      cfg.Key,
		SenderID: uint32(ln.id),
		Server: serve.Config{
			Shards:        cfg.Shards,
			QueueDepth:    cfg.QueueDepth,
			BatchMax:      cfg.BatchMax,
			RatePerClient: cfg.RatePerClient,
			Clock:         clock,
			Stamper:       stamper,
			Vault:         vault,
			QueueWait:     wait,
		},
	})
	if err != nil {
		return nil, err
	}
	ln.clientSrv = srv
	ln.clientWait = wait
	ln.vault = vault
	return srv.LocalAddr(), nil
}

// CommitCounters snapshots the commitment vault's cumulative tallies
// (zero value if ServeClients did not enable the commit subsystem).
func (ln *LiveNode) CommitCounters() commit.Counters {
	if ln.vault == nil {
		return commit.Counters{}
	}
	return ln.vault.Counters()
}

// CommitEpoch reports the vault's current lease epoch (0 without a
// commit subsystem). The epoch increases on every restart and on every
// detected anchor rollback; lease-mode tokens from older epochs are
// fenced.
func (ln *LiveNode) CommitEpoch() uint64 {
	if ln.vault == nil {
		return 0
	}
	return ln.vault.Epoch()
}

// ServeCounters snapshots the client-serving tallies, engine and
// transport level (zero value if ServeClients was not started).
func (ln *LiveNode) ServeCounters() serve.LiveCounters {
	if ln.clientSrv == nil {
		return serve.LiveCounters{}
	}
	return ln.clientSrv.Counters()
}

// Close shuts the node down (including its status server and client
// serving endpoint, if any).
func (ln *LiveNode) Close() error {
	if ln.statusSrv != nil {
		_ = ln.statusSrv.Close()
	}
	if ln.clientSrv != nil {
		_ = ln.clientSrv.Close()
	}
	if ln.vault != nil {
		// Persist the trusted high-water mark one last time: the next
		// incarnation's rollback detection is only as fresh as the
		// anchor on disk.
		_ = ln.vault.Flush()
	}
	// Reads fail from here on, as the protocol loop stops.
	ln.closed.Store(true)
	return ln.platform.Close()
}

// AuthorityServer is a running live Time Authority.
type AuthorityServer struct {
	srv *authority.Server
}

// NewAuthorityServer binds a UDP socket and starts serving reference
// time to the cluster identified by key.
func NewAuthorityServer(listen string, key []byte, id NodeID) (*AuthorityServer, error) {
	return NewAuthorityServerClock(listen, key, id, func() int64 { return time.Now().UnixNano() })
}

// NewAuthorityServerClock is NewAuthorityServer with an explicit
// reference clock — the hook security experiments use to stand up a
// deliberately lying authority against a quorum of honest ones.
func NewAuthorityServerClock(listen string, key []byte, id NodeID, clock func() int64) (*AuthorityServer, error) {
	conn, err := net.ListenPacket("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("triadtime: listen %q: %w", listen, err)
	}
	srv, err := authority.NewServerClock(conn, key, uint32(id), clock)
	if err != nil {
		conn.Close()
		return nil, err
	}
	go func() { _ = srv.Serve() }()
	return &AuthorityServer{srv: srv}, nil
}

// LocalAddr reports the bound UDP address.
func (a *AuthorityServer) LocalAddr() net.Addr { return a.srv.LocalAddr() }

// Served reports how many time references have been served to node id.
func (a *AuthorityServer) Served(id NodeID) int {
	return a.srv.Authority().Served(uint32(id))
}

// Close stops the server.
func (a *AuthorityServer) Close() error { return a.srv.Close() }
