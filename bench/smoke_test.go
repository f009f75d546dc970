package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeOpts is a one-second run with one short set-up.
func smokeOpts(t *testing.T, trace bool) runOpts {
	return runOpts{
		dir: t.TempDir(), out: t.TempDir(), seed: 1, seconds: 1, trace: trace,
		setups: 1, warmupDiv: 10,
	}
}

// checkRun asserts what every run owes: operations attempted and none
// failed, the order and validity check passed, every metric of the set
// present, and nothing left behind in -dir.
func checkRun(t *testing.T, w *workload, opts runOpts, out *outcome, defs []metricDef) {
	t.Helper()
	if out.incorrect != nil {
		t.Errorf("%s: %v", w.name, out.incorrect)
	}
	if out.attempted == 0 || out.failed != 0 {
		t.Errorf("%s: %d attempted, %d failed", w.name, out.attempted, out.failed)
	}
	for _, d := range defs {
		if _, ok := out.values[d.name]; !ok && !d.micro {
			t.Errorf("%s: metric %s missing", w.name, d.name)
		}
	}
	left, err := os.ReadDir(opts.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("%s: %s left behind in -dir", w.name, e.Name())
	}
}

// The three smoke tests run side by side to stay inside ten seconds; they
// assert presence and correctness, not speed.
func TestSmokeEndToEnd(t *testing.T) {
	t.Parallel()
	for i := range workloads {
		w := &workloads[i]
		opts := smokeOpts(t, false)
		out, err := run(w, opts)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkRun(t, w, opts, out, endToEnd)
		for _, d := range endToEnd {
			if out.values[d.name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.name, d.name, out.values[d.name])
			}
		}
	}
}

// The traced run is exercised on the two workloads that reach code the
// others do not: the mux counters and the crash schedule.
func TestSmokeTraced(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"sharded-closed", "crash-open"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := smokeOpts(t, true)
		out, err := run(w, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRun(t, w, opts, out, perLayer)
		if _, err := os.Stat(filepath.Join(opts.out, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: no span dump: %v", name, err)
		}
		v := out.values
		if w.crash && (v["outage_ms"] <= 0 || v["node.start_ms_p50"] <= 0 || v["node.catchup_ms_p50"] <= 0) {
			t.Errorf("crash-open: node metrics not measured: %v %v %v",
				v["outage_ms"], v["node.start_ms_p50"], v["node.catchup_ms_p50"])
		}
		if w.cluster.groups > 0 && v["group.frames_per_msg"] <= 0 {
			t.Errorf("sharded-closed: group.frames_per_msg = %v", v["group.frames_per_msg"])
		}
		if v["transport.sends_per_msg"] <= 0 || v["storage.ops_per_msg"] <= 0 {
			t.Errorf("%s: decorators saw nothing: %v sends, %v log ops per message",
				name, v["transport.sends_per_msg"], v["storage.ops_per_msg"])
		}
	}
}

func TestMicroSet(t *testing.T) {
	t.Parallel()
	out := &outcome{values: map[string]float64{}}
	if err := microMetrics(out, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if d.micro && out.values[d.name] <= 0 {
			t.Errorf("%s = %v, want a positive value", d.name, out.values[d.name])
		}
	}
}

// BENCHMARK.json at the repository root declares the workloads and metrics
// to the driver; it must say what the program prints.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	type metric struct{ Name, Unit string }
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m := manifest.Workloads[i]; m.Name != w.name || m.Why != w.why {
			t.Errorf("workload %d: manifest %q (%q), program %q (%q)", i, m.Name, m.Why, w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: manifest %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
}
