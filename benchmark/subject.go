package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"triadtime"
	"triadtime/internal/commit"
	"triadtime/internal/serve"
)

// subjectConfig is the first line the driver writes to a subject: which
// workload's program to be, and nothing about the load to come — a live
// subject only ever sees datagrams.
type subjectConfig struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	KeyHex   string `json:"key"` // client-traffic key of this boot
	Dir      string `json:"dir"` // scratch directory (commit anchor)
}

// subjectReply answers every command. Proc is always the subject's own
// counters at the moment of the reply.
type subjectReply struct {
	Err string `json:"err,omitempty"`
	// Disturbed says that Err is the host's doing — a stall in the middle
	// of calibration — and that a fresh boot deserves another try.
	Disturbed bool      `json:"disturbed,omitempty"`
	Proc      procStats `json:"proc"`

	// boot (live): where clients send, and how long the façade calls took.
	Addr       string  `json:"addr,omitempty"`
	BootS      float64 `json:"boot_s,omitempty"`
	CalibrateS float64 `json:"calibrate_s,omitempty"`

	// mark (live): the node's public counters.
	State  string             `json:"state,omitempty"`
	Serve  serve.LiveCounters `json:"serve"`
	Commit commit.Counters    `json:"commit"`

	// pass (sim): one cycle of the workload's pieces, done.
	Digest string      `json:"digest,omitempty"`
	Pieces []pieceStat `json:"pieces,omitempty"`

	// trace: per-layer numbers and the spans behind them.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// Cluster credentials of the benchmark's one-node deployment.
const (
	authorityID triadtime.NodeID = 100
	nodeID      triadtime.NodeID = 1
)

// fixedKey is a key every process of a run can derive: byte i is x^i.
func fixedKey(x byte) []byte {
	key := make([]byte, triadtime.KeySize)
	for i := range key {
		key[i] = x ^ byte(i)
	}
	return key
}

func clusterKey() []byte { return fixedKey(0x5a) }
func tsaKey() []byte     { return fixedKey(0xc3) }

// liveSubject is the program under test of a live workload: a time
// authority and one façade node serving clients, as an operator would
// start them.
type liveSubject struct {
	spec   *liveSpec
	cfg    subjectConfig
	key    []byte
	ta     *triadtime.AuthorityServer
	node   *triadtime.LiveNode
	status string
}

// calibSleeps shortens the paper's {0, 1 s} calibration ladder the way
// the repository's own live tests do, so that a run can afford to set
// up several times; the calibration code path is unchanged.
var calibSleeps = []time.Duration{0, 100 * time.Millisecond}

func bootLive(spec *liveSpec, cfg subjectConfig, rec *spanRecorder) (*liveSubject, subjectReply, error) {
	key, err := hex.DecodeString(cfg.KeyHex)
	if err != nil {
		return nil, subjectReply{}, fmt.Errorf("client key: %w", err)
	}
	s := &liveSubject{spec: spec, cfg: cfg, key: key}
	root := rec.begin(0, "facade.setup")
	defer func() { rec.end(root, 1) }()

	t0 := time.Now()
	sp := rec.begin(root, "facade.boot")
	if s.ta, err = triadtime.NewAuthorityServer("127.0.0.1:0", clusterKey(), authorityID); err != nil {
		return nil, subjectReply{}, err
	}
	s.node, err = triadtime.NewLiveNode(triadtime.LiveConfig{
		Key:                  clusterKey(),
		ID:                   nodeID,
		Listen:               "127.0.0.1:0",
		Directory:            map[triadtime.NodeID]string{authorityID: s.ta.LocalAddr().String()},
		Authority:            authorityID,
		CalibSleeps:          calibSleeps,
		CalibSamplesPerSleep: 2,
	})
	rec.end(sp, 1)
	if err != nil {
		s.close()
		return nil, subjectReply{}, err
	}
	boot := time.Since(t0)

	t1 := time.Now()
	sp = rec.begin(root, "facade.calibrate")
	for s.node.State() != triadtime.StateOK {
		if time.Since(t1) > 20*time.Second {
			s.close()
			return nil, subjectReply{}, fmt.Errorf("node never calibrated (state %v)", s.node.State())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.clockSound(); err != nil {
		s.close()
		return nil, subjectReply{Disturbed: true}, err
	}
	rec.end(sp, 1)
	calibrate := time.Since(t1)

	t2 := time.Now()
	sp = rec.begin(root, "facade.serve_clients")
	serveCfg := triadtime.ClientServeConfig{Listen: "127.0.0.1:0", Key: key, RatePerClient: spec.ratePerClient}
	if spec.tsa {
		serveCfg.TSAKey = tsaKey()
	}
	if spec.vault {
		serveCfg.CommitAnchor = filepath.Join(cfg.Dir, "commit.anchor")
	}
	addr, err := s.node.ServeClients(serveCfg)
	if err == nil {
		var status net.Addr
		if status, err = s.node.ServeStatus("127.0.0.1:0"); err == nil {
			s.status = status.String()
		}
	}
	rec.end(sp, 1)
	if err != nil {
		s.close()
		return nil, subjectReply{}, err
	}
	boot += time.Since(t2)
	return s, subjectReply{Addr: addr.String(), BootS: boot.Seconds(), CalibrateS: calibrate.Seconds()}, nil
}

// clockSound checks the calibration the node has just finished: its
// trusted clock must sit within a second of the host's and run at the
// host's rate to within five percent (undisturbed, the shortened ladder
// leaves it 0.2-1 % slow). The ladder measures the counter's rate over
// 100 ms sleeps, and a host stall inside one of them is taken for counter
// ticks: a node calibrated that way reaches StateOK with a clock tens of
// percent fast or slow, every answer it gives is soon seconds off, and
// none of that is the serving path's doing.
func (s *liveSubject) clockSound() error {
	const over = 50 * time.Millisecond
	offset := func() (time.Duration, error) {
		trusted, err := s.node.TrustedNanos()
		return time.Duration(trusted - time.Now().UnixNano()), err
	}
	before, err := offset()
	if err != nil {
		return err
	}
	time.Sleep(over)
	after, err := offset()
	if err != nil {
		return err
	}
	if before.Abs() > time.Second || (after-before).Abs() > over/20 {
		return fmt.Errorf("calibration was disturbed: trusted clock %v off the host's and moving %v in %v", before, after-before, over)
	}
	return nil
}

func (s *liveSubject) mark() subjectReply {
	return subjectReply{
		State:  s.node.State().String(),
		Serve:  s.node.ServeCounters(),
		Commit: s.node.CommitCounters(),
	}
}

func (s *liveSubject) close() {
	if s.node != nil {
		_ = s.node.Close() // shutdown of a process about to exit
	}
	if s.ta != nil {
		_ = s.ta.Close()
	}
}

// runSubject is the -role=subject main loop: one config line, then one
// reply per command line until "quit" or end of input.
func runSubject(in io.Reader, out io.Writer) error {
	r := bufio.NewReaderSize(in, 1<<16)
	enc := json.NewEncoder(out)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("subject: reading config: %w", err)
	}
	var cfg subjectConfig
	if err := json.Unmarshal(line, &cfg); err != nil {
		return fmt.Errorf("subject: config: %w", err)
	}

	rec := newSpanRecorder()
	var live *liveSubject
	var sim *simSubject
	var boot subjectReply
	if spec := findLiveSpec(cfg.Workload); spec != nil {
		if live, boot, err = bootLive(spec, cfg, rec); err == nil {
			defer live.close()
		}
	} else if sim, err = newSimSubject(cfg); err != nil {
		err = fmt.Errorf("subject: %w", err)
	}
	reply := func(rep subjectReply, err error) error {
		if err != nil {
			rep.Err = err.Error()
		}
		rep.Proc = readProcStats(true)
		return enc.Encode(&rep)
	}
	if werr := reply(boot, err); werr != nil || err != nil {
		return errors.Join(err, werr)
	}

	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil // the driver went away: so do we
		}
		var rep subjectReply
		var cerr error
		switch cmd := line[:len(line)-1]; {
		case cmd == "quit":
			return nil
		case cmd == "mark" && live != nil:
			rep = live.mark()
		case cmd == "pass" && sim != nil:
			rep, cerr = sim.pass()
		case cmd == "trace" && live != nil:
			rep, cerr = live.trace(rec)
		case cmd == "trace" && sim != nil:
			rep, cerr = sim.trace(rec)
		default:
			cerr = fmt.Errorf("subject: unknown command %q", cmd)
		}
		if err := reply(rep, cerr); err != nil {
			return err
		}
	}
}

func subjectMain() {
	if err := runSubject(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
