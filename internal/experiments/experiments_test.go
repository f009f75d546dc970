package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestE1ReproducesMinimalLoggingClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	res, err := E1LogOps(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	// The headline number: the basic protocol's broadcast layer logs
	// nothing.
	basic := res.Table.Rows[0]
	if !strings.HasPrefix(basic[0], "basic") {
		t.Fatalf("first row is %v", basic)
	}
	if basic[1] != "0.00" {
		t.Fatalf("basic abcast ops = %s, want 0.00", basic[1])
	}
	// Every alternative variant logs something.
	for _, row := range res.Table.Rows[1:] {
		if row[1] == "0.00" {
			t.Fatalf("variant %s logged nothing", row[0])
		}
	}
}

func TestE2ReplayGrowsWithoutCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	res, err := E2Recovery(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// Rows alternate off / every-10 per R; replayed rounds with
	// checkpoints off must equal R.
	for _, row := range res.Table.Rows {
		if row[1] == "off" && row[0] != row[2] {
			t.Fatalf("checkpoint-off replay %s != R %s", row[2], row[0])
		}
	}
}

func TestByNameKnowsAllExperiments(t *testing.T) {
	// E7 is retired and the later IDs keep their numbers.
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E8", "E9", "E10", "E11", "E12", "E13"}
	if len(registry) != len(want) {
		t.Fatalf("registry holds %d experiments, want %v", len(registry), want)
	}
	for i, e := range registry {
		if e.name != want[i] {
			t.Fatalf("registry[%d] is %s, want %s", i, e.name, want[i])
		}
		if _, ok := ByName(e.name); !ok {
			t.Fatalf("experiment %s unknown", e.name)
		}
	}
	// The first id past the registry is a retired experiment, not a gap;
	// E7 is the one gap below it.
	past := fmt.Sprintf("E%d", len(registry)+2)
	for _, name := range []string{"E7", past, "E99", ""} {
		if _, ok := ByName(name); ok {
			t.Fatalf("phantom experiment %q", name)
		}
	}
}

func TestScalePick(t *testing.T) {
	if Quick.pick(1, 2) != 1 || Full.pick(1, 2) != 2 {
		t.Fatal("scale pick broken")
	}
}
