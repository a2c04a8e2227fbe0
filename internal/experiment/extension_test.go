package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"triadtime/internal/attack"
)

func TestExtensionOriginalGetsInfected(t *testing.T) {
	res, err := RunExtensionVariant(11, VariantOriginal, attack.ModeFMinus, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HonestInfected {
		t.Error("original protocol should propagate the F- attack to honest nodes")
	}
	if res.CompromisedFCalibPPM > -50000 {
		t.Errorf("compromised F_calib off by %.0fppm, want ~-100000 (0.9x)", res.CompromisedFCalibPPM)
	}
}

func TestExtensionHardenedStaysSafe(t *testing.T) {
	res, err := RunExtensionVariant(11, VariantHardened, attack.ModeFMinus, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.HonestInfected {
		t.Error("hardened protocol let the F- attack propagate")
	}
	if res.HonestMaxDrift > 0.1 {
		t.Errorf("honest max drift = %vs under hardened protocol", res.HonestMaxDrift)
	}
	// Hardening may cost the compromised node availability (visible
	// DoS), but never silent rate corruption.
	if ppm := res.CompromisedFCalibPPM; ppm < -5000 || ppm > 5000 {
		t.Errorf("compromised F_calib off by %.0fppm, want bounded corruption", ppm)
	}
	// Honest nodes keep serving.
	if res.HonestAvailability < 0.95 {
		t.Errorf("honest availability = %v", res.HonestAvailability)
	}
}

func TestExtensionComparisonTable(t *testing.T) {
	results, err := RunExtensionComparison(context.Background(), 12, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d rows", len(results))
	}
	byVariant := map[Variant]*ExtensionResult{}
	for _, r := range results {
		byVariant[r.Variant] = r
	}
	if !byVariant[VariantOriginal].HonestInfected {
		t.Error("original row should show infection")
	}
	if byVariant[VariantHardened].HonestInfected {
		t.Error("hardened row should be safe")
	}
	// The no-deadline ablation still has the chimer filter, so
	// propagation is still blocked.
	if byVariant[VariantNoDeadline].HonestInfected {
		t.Error("no-deadline ablation should still block propagation (chimer filter active)")
	}
	summary := Table("variants", results)
	if !strings.Contains(summary, "original") || !strings.Contains(summary, "hardened") {
		t.Errorf("summary malformed:\n%s", summary)
	}
}

func TestVariantString(t *testing.T) {
	if VariantOriginal.String() != "original" || Variant(99).String() != "variant(?)" {
		t.Error("Variant.String misbehaves")
	}
}

func TestGossipReducesTAReliance(t *testing.T) {
	rows, err := RunGossipComparison(17, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	off, on := rows[0], rows[1]
	if on.TARefsPerNode >= off.TARefsPerNode {
		t.Errorf("gossip TA refs/node = %v, want < %v (the §V promise)",
			on.TARefsPerNode, off.TARefsPerNode)
	}
	if on.MinAvailability < off.MinAvailability-0.01 {
		t.Errorf("gossip availability %v worse than baseline %v", on.MinAvailability, off.MinAvailability)
	}
}
