package experiment

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"triadtime/internal/trace"
)

// quorumSuiteSeed is the suite's canonical seed: it places a
// machine-wide AEX inside the fault window, so the single-TA baseline
// visibly loses availability while the quorum variants ride it out.
const quorumSuiteSeed = 10

const quorumSuiteDuration = 5 * time.Minute

func quorumRowsByName(t *testing.T) map[string]QuorumRow {
	t.Helper()
	rows, err := RunQuorumFaults(context.Background(), quorumSuiteSeed, quorumSuiteDuration)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]QuorumRow, len(rows))
	for _, r := range rows {
		byName[r.Name] = r
	}
	return byName
}

// TestQuorumFaultSuite pins the suite's headline claims: quorum
// clusters survive minority authority outages and lying minorities
// with availability strictly above the single-TA baselines.
func TestQuorumFaultSuite(t *testing.T) {
	rows := quorumRowsByName(t)
	baseOutage := rows["baseline-1ta-outage"]
	baseLying := rows["baseline-1ta-lying"]

	// The baseline outage must actually hurt (the seed guarantees a
	// machine-wide taint while the TA is dark) and the lying baseline
	// must serve wrong time: available but never correct.
	if baseOutage.RawAvailability > 0.95 {
		t.Errorf("baseline outage availability %.3f: outage did not bite, seed no longer demonstrative", baseOutage.RawAvailability)
	}
	if baseLying.CorrectAvailability > 0.01 {
		t.Errorf("lying baseline correct availability %.3f, want ~0 (node follows the liar)", baseLying.CorrectAvailability)
	}
	if baseLying.RawAvailability < 0.9 {
		t.Errorf("lying baseline raw availability %.3f: the point is that it stays 'available' while wrong", baseLying.RawAvailability)
	}

	outageRows := []string{"quorum-3ta-1dark", "quorum-5ta-2dark", "quorum-3ta-staggered-dark"}
	for _, name := range outageRows {
		r, ok := rows[name]
		if !ok {
			t.Fatalf("missing row %q", name)
		}
		if r.RawAvailability <= baseOutage.RawAvailability {
			t.Errorf("%s availability %.4f not strictly above single-TA baseline %.4f",
				name, r.RawAvailability, baseOutage.RawAvailability)
		}
		if r.CorrectAvailability <= baseOutage.CorrectAvailability {
			t.Errorf("%s correct availability %.4f not strictly above baseline %.4f",
				name, r.CorrectAvailability, baseOutage.CorrectAvailability)
		}
	}

	attackRows := []string{"quorum-3ta-lying-fixed", "quorum-3ta-lying-drift", "quorum-3ta-delaying", "quorum-5ta-split-3v2"}
	for _, name := range attackRows {
		r, ok := rows[name]
		if !ok {
			t.Fatalf("missing row %q", name)
		}
		if r.CorrectAvailability < 0.95 {
			t.Errorf("%s correct availability %.4f, want >= 0.95 (quorum outvotes the minority)", name, r.CorrectAvailability)
		}
		if r.CorrectAvailability <= baseLying.CorrectAvailability {
			t.Errorf("%s correct availability %.4f not strictly above lying baseline %.4f",
				name, r.CorrectAvailability, baseLying.CorrectAvailability)
		}
	}

	// Lying minorities are visible in the false-ticker tally; a purely
	// delaying authority is not (the half-roundtrip interval widening
	// keeps its interval over the truth, by construction).
	for _, name := range []string{"quorum-3ta-lying-fixed", "quorum-3ta-lying-drift", "quorum-5ta-split-3v2"} {
		if rows[name].FalseTickers == 0 {
			t.Errorf("%s: no false tickers counted, liar went unnoticed", name)
		}
	}
	if ft := rows["quorum-3ta-delaying"].FalseTickers; ft != 0 {
		t.Errorf("delaying authority counted as %d false tickers, want 0", ft)
	}

	// Split-brain: no side has a majority, so nodes must degrade to
	// holdover (counted) yet keep serving, and recover after the heal.
	sb := rows["quorum-4ta-splitbrain-2v2"]
	if sb.Holdovers == 0 {
		t.Error("split-brain: no holdovers counted")
	}
	if sb.QuorumNoMajority == 0 {
		t.Error("split-brain: no failed quorum rechecks counted")
	}
	if sb.RawAvailability < 0.9 || sb.CorrectAvailability < 0.9 {
		t.Errorf("split-brain availability raw %.4f correct %.4f: holdover should keep the cluster serving",
			sb.RawAvailability, sb.CorrectAvailability)
	}

	// Every quorum scenario actually exercised quorum calibration.
	for name, r := range rows {
		if r.Authorities >= 2 && r.QuorumAccepts == 0 {
			t.Errorf("%s: no quorum accepts", name)
		}
		if r.Authorities == 1 && (r.QuorumAccepts != 0 || r.QuorumNoMajority != 0) {
			t.Errorf("%s: single-TA baseline shows quorum counters: %+v", name, r)
		}
	}
}

// TestQuorumSuiteDeterministic: the whole suite is a pure function of
// its seed.
func TestQuorumSuiteDeterministic(t *testing.T) {
	a, err := RunQuorumFaults(context.Background(), quorumSuiteSeed, quorumSuiteDuration)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunQuorumFaults(context.Background(), quorumSuiteSeed, quorumSuiteDuration)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed suite rows differ:\n%v\n%v", a, b)
	}
}

// TestQuorumScenarioGoldenTraces runs every scenario twice with a
// trace recorder attached and requires byte-identical JSONL — the
// golden-trace seed-stability gate for the quorum machinery (timer
// ordering, round bookkeeping, counter updates all feed the trace).
func TestQuorumScenarioGoldenTraces(t *testing.T) {
	for _, sc := range quorumScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			run := func() string {
				var sink strings.Builder
				rec := trace.NewRecorder(nil, &sink)
				if _, err := runQuorumScenario(quorumSuiteSeed, 2*time.Minute, sc, rec); err != nil {
					t.Fatal(err)
				}
				return sink.String()
			}
			first, second := run(), run()
			if first == "" {
				t.Fatal("empty trace")
			}
			if first != second {
				t.Error("same-seed scenario traces differ: determinism broken")
			}
			if !strings.Contains(first, `"kind":"calibrated"`) {
				t.Error("trace records no calibration")
			}
		})
	}
}

// TestQuorumAttackFigure checks the attack figure's shape: under a
// +300ms lying authority the single-TA node tracks the lie, while the
// 3-authority quorum stays on reference time.
func TestQuorumAttackFigure(t *testing.T) {
	fig, err := RunQuorumAttackFigure(quorumSuiteSeed, quorumSuiteDuration)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Baseline) == 0 || len(fig.Quorum) == 0 {
		t.Fatal("empty figure series")
	}
	for _, s := range fig.Baseline {
		pts := s.Available()
		if len(pts) == 0 {
			t.Fatalf("%s: no available samples", s.Node)
		}
		lied := 0
		for _, p := range pts {
			if math.Abs(p.DriftSeconds) > 0.25 {
				lied++
			}
		}
		if frac := float64(lied) / float64(len(pts)); frac < 0.9 {
			t.Errorf("baseline %s only %.2f of samples near the +300ms lie; figure lost its contrast", s.Node, frac)
		}
	}
	for _, s := range fig.Quorum {
		for _, p := range s.Available() {
			if math.Abs(p.DriftSeconds) > CorrectDriftTolerance.Seconds() {
				t.Errorf("quorum %s drifted %.3fs at t=%.0fs despite honest majority", s.Node, p.DriftSeconds, p.RefSeconds)
				break
			}
		}
	}
}

// TestTAOutageNoRecoveryAtRunEnd is the regression for the outage
// runner's recovery verdict: when the outage window ends exactly at
// the run's end, there is no post-outage stretch to recover in, and
// Recovered must report false (the tail window lies inside the
// outage). The seed pins a machine-wide taint during the outage so the
// cluster is genuinely down at the end.
func TestTAOutageNoRecoveryAtRunEnd(t *testing.T) {
	res, err := RunTAOutage(quorumSuiteSeed, 240*time.Second, 60*time.Second, 240*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered {
		t.Errorf("Recovered=true for an outage ending at run end: %s", res.Summary())
	}
	if res.AvailabilityDuring > 0.5 {
		t.Errorf("availability during %.3f, want the outage to bite (seed drift?)", res.AvailabilityDuring)
	}
}

// TestOutageResultSummaryFormat pins the row's rendering.
func TestOutageResultSummaryFormat(t *testing.T) {
	cases := []struct {
		res  OutageResult
		want string
	}{
		{
			OutageResult{OutageStart: time.Minute, OutageEnd: 4 * time.Minute, AvailabilityDuring: 0.3473, Recovered: false},
			"TA outage 1m0s..4m0s: worst availability during  34.73%, recovered=false",
		},
		{
			OutageResult{OutageStart: 30 * time.Second, OutageEnd: 90 * time.Second, AvailabilityDuring: 1, Recovered: true},
			"TA outage 30s..1m30s: worst availability during 100.00%, recovered=true",
		},
		{
			OutageResult{},
			"TA outage 0s..0s: worst availability during   0.00%, recovered=false",
		},
	}
	for _, c := range cases {
		if got := c.res.Summary(); got != c.want {
			t.Errorf("Summary() = %q, want %q", got, c.want)
		}
	}
}
