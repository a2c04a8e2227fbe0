package experiment

import (
	"context"
	"testing"
)

// TestCommitAttackRows pins the suite's verdict tallies: the attack
// table is an oracle, so every row's counts are exact.
func TestCommitAttackRows(t *testing.T) {
	rows, err := RunCommitAttacks(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]CommitRow{
		"honest-ripe-unlock":  {Ops: 2, Granted: 1, Early: 1, FinalEpoch: 1},
		"early-unlock-storm":  {Ops: 19, Granted: 5, Early: 14, FinalEpoch: 1},
		"forged-token":        {Ops: 4, Granted: 1, Forged: 3, FinalEpoch: 1},
		"degraded-holdover":   {Ops: 3, Granted: 1, Unavailable: 2, FinalEpoch: 1},
		"clock-rollback":      {Ops: 4, Granted: 2, Unavailable: 2, ClockRollbacks: 2, FinalEpoch: 1},
		"restart-lease-fence": {Ops: 2, Granted: 1, Fenced: 1, FinalEpoch: 2},
		"anchor-rollback":     {Ops: 2, Granted: 1, Fenced: 1, AnchorRollbacks: 1, FinalEpoch: 4},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		exp, ok := want[row.Name]
		if !ok {
			t.Errorf("unexpected scenario %q", row.Name)
			continue
		}
		exp.Name = row.Name
		if row != exp {
			t.Errorf("row mismatch:\n got %s\nwant %s", row.Summary(), exp.Summary())
		}
	}
}

// TestCommitAttacksDeterministic diffs two full runs: the rendered
// table must be byte-identical (triad-sim caches and re-renders it).
func TestCommitAttacksDeterministic(t *testing.T) {
	a, err := RunCommitAttacks(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCommitAttacks(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if Table("commit", a) != Table("commit", b) {
		t.Fatalf("runs differ:\n%s\nvs\n%s", Table("commit", a), Table("commit", b))
	}
}

// TestCommitAttacksNeverGrantEarly is the suite's core security claim
// as a property: across scenarios, every granted unlock happened at or
// after the token's unlock time on the trusted timeline — refusals are
// how the storm, holdover, and rollback scenarios show up, never an
// early grant. The storm scenario in particular fires 14 pre-ripe
// attempts; all must be refused Sealed.
func TestCommitAttacksNeverGrantEarly(t *testing.T) {
	rows, err := RunCommitAttacks(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]CommitRow, len(rows))
	for _, row := range rows {
		byName[row.Name] = row
		if row.Ops != row.Granted+row.Early+row.Fenced+row.Forged+row.Unavailable {
			t.Errorf("%s: verdicts don't partition ops: %s", row.Name, row.Summary())
		}
	}
	storm := byName["early-unlock-storm"]
	if storm.Early == 0 || storm.Granted+storm.Early != storm.Ops {
		t.Errorf("storm row admits a non-Sealed refusal or no early attempts: %s", storm.Summary())
	}
}
