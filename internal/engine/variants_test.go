package engine_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"triadtime/internal/core"
	"triadtime/internal/enclave"
	"triadtime/internal/engine"
	"triadtime/internal/resilient"
	"triadtime/internal/simnet"
	"triadtime/internal/wire"
)

// variants builds each protocol variant from nothing but the shared
// configuration — what a variant adds is left at its defaults.
var variants = []struct {
	name string
	new  func(enclave.Platform, engine.Config) (*engine.Node, error)
}{
	{"core", func(p enclave.Platform, c engine.Config) (*engine.Node, error) {
		return core.NewNode(p, core.Config{Config: c})
	}},
	{"resilient", func(p enclave.Platform, c engine.Config) (*engine.Node, error) {
		return resilient.NewNode(p, resilient.Config{Config: c})
	}},
}

// TestVariantsShareConfig pins what the embedded shared Config must not
// change, for both variants through the one node handle: zero-valued
// shared fields resolve to the same defaults, the engine's validation
// errors arrive under the variant's package name, and two or more
// authorities — never one — put the node under quorum calibration.
func TestVariantsShareConfig(t *testing.T) {
	key := make([]byte, wire.KeySize)
	for _, v := range variants {
		t.Run(v.name+"/defaults", func(t *testing.T) {
			n, err := v.new(engine.NewFakePlatform(), engine.Config{Key: key, Addr: 1, Authority: 100})
			if err != nil {
				t.Fatal(err)
			}
			got := n.ResolvedConfig()
			if got.PeerTimeout != 20*time.Millisecond || got.TATimeout != 250*time.Millisecond ||
				got.MonitorTicks != 15e6 || got.MonitorTolerance != 0.005 || got.QuorumRecheck != 10*time.Second {
				t.Errorf("defaults = peer %v, TA %v, monitor %d ticks ±%v, recheck %v",
					got.PeerTimeout, got.TATimeout, got.MonitorTicks, got.MonitorTolerance, got.QuorumRecheck)
			}
			if !slices.Equal(got.Authorities, []simnet.Addr{100}) {
				t.Errorf("authorities = %v, want [100]", got.Authorities)
			}
		})

		invalid := []struct {
			name string
			cfg  engine.Config
		}{
			{"short key", engine.Config{Key: []byte("short"), Addr: 1, Authority: 100}},
			{"self as peer", engine.Config{Key: key, Addr: 1, Authority: 100, Peers: []simnet.Addr{2, 1}}},
			{"duplicate authority", engine.Config{Key: key, Addr: 1, Authorities: []simnet.Addr{100, 101, 100}}},
		}
		for _, tc := range invalid {
			t.Run(v.name+"/"+tc.name, func(t *testing.T) {
				_, err := v.new(engine.NewFakePlatform(), tc.cfg)
				if err == nil || !strings.HasPrefix(err.Error(), v.name+": ") {
					t.Errorf("err = %v, want an error under %q", err, v.name+": ")
				}
			})
		}

		// Quorum calibration fans its first exchange out to every
		// authority; a variant's own calibration asks only the first.
		for _, auths := range [][]simnet.Addr{{100}, {100, 101}, {100, 101, 102}} {
			t.Run(fmt.Sprintf("%s/%d authorities", v.name, len(auths)), func(t *testing.T) {
				p := engine.NewFakePlatform()
				n, err := v.new(p, engine.Config{Key: key, Addr: 1, Authorities: auths, DisableMonitor: true})
				if err != nil {
					t.Fatal(err)
				}
				n.Start()
				if got := p.Destinations(); !slices.Equal(got, auths) {
					t.Errorf("%d authorities: first exchange went to %v, want %v", len(auths), got, auths)
				}
				if n.State() != engine.StateFullCalib {
					t.Errorf("state after Start = %v", n.State())
				}
			})
		}
	}
}
