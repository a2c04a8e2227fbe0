package experiment

import (
	"strings"
	"testing"
	"time"

	"triadtime/internal/ntpdisc"
	"triadtime/internal/t3e"
)

func TestDriftQualityOrdering(t *testing.T) {
	rows, err := RunDriftQuality(21, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	triad, hardened, ntp := rows[0], rows[1], rows[2]
	// The paper's point: Triad's short-window calibration drifts an
	// order of magnitude above NTP's 15ppm standard; long-window
	// mechanisms stay under it.
	if triad.ResidualPPM < 10 {
		t.Errorf("Triad residual = %.2fppm; expected O(100ppm) short-window error", triad.ResidualPPM)
	}
	if ntp.ResidualPPM > ntpdisc.StandardDriftPPM {
		t.Errorf("NTP residual = %.2fppm, want < %dppm", ntp.ResidualPPM, ntpdisc.StandardDriftPPM)
	}
	if hardened.ResidualPPM > triad.ResidualPPM {
		t.Errorf("hardened (%.2fppm) should beat Triad (%.2fppm)", hardened.ResidualPPM, triad.ResidualPPM)
	}
	if !strings.Contains(triad.Summary(), "ppm") {
		t.Error("summary malformed")
	}
}

func TestT3ETradeoffShape(t *testing.T) {
	rows, err := RunT3ETradeoff(22, 400, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	byCell := map[[2]int64]T3ERow{}
	for _, r := range rows {
		byCell[[2]int64{int64(r.Quota), int64(r.TPMDelay)}] = r
	}
	noAttack := byCell[[2]int64{10, 0}]
	if noAttack.Throughput < 0.95 {
		t.Errorf("quota 10 without attack: throughput %.2f, want ~1", noAttack.Throughput)
	}
	// Under a 1s delay, small quotas collapse throughput...
	smallQ := byCell[[2]int64{1, int64(time.Second)}]
	if smallQ.Throughput > 0.2 {
		t.Errorf("quota 1 under 1s delay: throughput %.2f, want collapse", smallQ.Throughput)
	}
	// ...while big quotas keep serving but with staleness up to the
	// injected delay.
	bigQ := byCell[[2]int64{1000, int64(time.Second)}]
	if bigQ.Throughput < 0.9 {
		t.Errorf("quota 1000 under 1s delay: throughput %.2f, want ~1", bigQ.Throughput)
	}
	if bigQ.WorstStaleness < 500*time.Millisecond {
		t.Errorf("quota 1000 staleness %v, want near the 1s delay", bigQ.WorstStaleness)
	}
}

func TestT3EOwnerDrift(t *testing.T) {
	rows, err := RunT3EOwnerDrift(23)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		diff := r.ServedDriftFrac - r.TPMRateFrac
		if diff < -0.02 || diff > 0.02 {
			t.Errorf("tpm rate %+.3f -> served drift %+.3f (should track)", r.TPMRateFrac, r.ServedDriftFrac)
		}
	}
	if rows[0].TPMRateFrac != -t3e.MaxTPMDriftFrac {
		t.Error("first row should be the -32.5% envelope")
	}
	sum := Table("T3E drift", rows)
	if !strings.Contains(sum, "32.5") {
		t.Errorf("summary missing envelope note:\n%s", sum)
	}
}
