package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// subjectProc is a running subject: this same binary re-executed with
// -role=subject, so that CPU, memory and allocations reported for the
// program under test never include the load generator's.
type subjectProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	replies chan subjectReply
	readErr error // why replies closed; read after it has
}

// errDisturbed marks a boot that failed because the host stalled at the
// wrong moment; the driver boots again.
var errDisturbed = errors.New("boot disturbed")

// callTimeout bounds one command; the longest is the traced replay.
const callTimeout = 90 * time.Second

// spawnSubject starts a subject and waits for its boot reply.
func spawnSubject(cfg subjectConfig) (*subjectProc, subjectReply, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, subjectReply{}, err
	}
	cmd := exec.Command(exe, "-role=subject")
	// Pin the collector: peak_rss_mb and allocation-driven CPU depend on
	// GOGC, and the caller's environment must not move them.
	cmd.Env = append(os.Environ(), "GOGC=100")
	if findLiveSpec(cfg.Workload) != nil {
		// A live node gets one core's worth of Go scheduler and the
		// generator the rest of the machine. With an idle second P the
		// runtime wakes a thread to spin for work at every burst, and a
		// boot then costs 7 or 10 us a request depending on how long
		// those threads happen to spin before they park.
		cmd.Env = append(cmd.Env, "GOMAXPROCS=1")
	}
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, subjectReply{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, subjectReply{}, err
	}
	if err := cmd.Start(); err != nil {
		return nil, subjectReply{}, fmt.Errorf("starting subject: %w", err)
	}
	p := &subjectProc{cmd: cmd, stdin: stdin, replies: make(chan subjectReply)}
	go func() {
		defer close(p.replies)
		dec := json.NewDecoder(bufio.NewReaderSize(stdout, 1<<16))
		for {
			var rep subjectReply
			if err := dec.Decode(&rep); err != nil {
				if !errors.Is(err, io.EOF) {
					p.readErr = err
				}
				return
			}
			p.replies <- rep
		}
	}()
	line, err := json.Marshal(cfg)
	if err != nil {
		p.stop()
		return nil, subjectReply{}, err
	}
	rep, err := p.call(string(line))
	if err != nil {
		p.stop()
		return nil, subjectReply{}, err
	}
	return p, rep, nil
}

// call writes one line — the config, then command words — and returns
// the subject's reply to it.
func (p *subjectProc) call(line string) (subjectReply, error) {
	if _, err := io.WriteString(p.stdin, line+"\n"); err != nil {
		return subjectReply{}, fmt.Errorf("subject went away: %w", err)
	}
	select {
	case rep, ok := <-p.replies:
		if !ok {
			return subjectReply{}, fmt.Errorf("subject exited mid-command (%v)", p.readErr)
		}
		if rep.Disturbed {
			return rep, fmt.Errorf("%w: %s", errDisturbed, rep.Err)
		}
		if rep.Err != "" {
			return rep, errors.New(rep.Err)
		}
		return rep, nil
	case <-time.After(callTimeout):
		return subjectReply{}, fmt.Errorf("subject did not answer %q within %v", line, callTimeout)
	}
}

// stop ends the subject and waits until it is gone: politely first,
// then by closing its input, then by killing it.
func (p *subjectProc) stop() {
	_, _ = io.WriteString(p.stdin, "quit\n") // a dead subject is what we want anyway
	_ = p.stdin.Close()
	done := make(chan struct{})
	go func() {
		for range p.replies {
		}
		_ = p.cmd.Wait() // exit status of a process we are discarding
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}
