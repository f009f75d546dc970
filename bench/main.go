// Command bench is the repository's one benchmark: five pinned workloads
// on three processes over TCP loopback and the write-ahead log, the same
// end-to-end metrics on each, and a traced run that supplies per-layer
// numbers. See README.md in this directory.
//
//	go run . -workload small-closed [-seed 1] [-seconds 15] [-trace 1] [-dir D]
//	go run . -layers
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics — the end-to-end set without -trace, the
// per-layer set with it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// setupsPerRun is how many times an untraced run sets its workload up;
// setup_s is the median, so one slow start does not decide it. A traced run
// does not report setup_s and sets up once.
const setupsPerRun = 3

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "seed of the payload bytes")
		seconds = flag.Float64("seconds", 18, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span dump")
		layers  = flag.Bool("layers", false, "run only the per-layer micro benchmarks")
		dir     = flag.String("dir", "out/data", "directory the clusters' logs are created (and removed) under")
		outDir  = flag.String("out", "out", "directory the span dump is written to")
	)
	flag.Parse()
	opts := runOpts{
		dir: *dir, out: *outDir, seed: *seed, seconds: *seconds, trace: *trace != 0,
		setups: setupsPerRun, warmupDiv: 1,
	}
	if opts.trace {
		opts.setups = 1
	}
	if err := mainErr(*name, *layers, opts); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func mainErr(name string, layers bool, opts runOpts) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if layers {
		return runLayers(opts.dir)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if opts.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var out *outcome
	err = withScratchDir(opts.dir, func(dir string) error {
		printHeader(w, opts)
		opts.dir = dir
		if out, err = run(w, opts); err != nil {
			return err
		}
		if opts.trace {
			if err := microMetrics(out, dir); err != nil {
				return fmt.Errorf("micro benchmarks: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	res := resultJSON{
		Correct: out.incorrect == nil, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricJSON{},
	}
	fmt.Printf("set-ups (s): %.3f\n", out.setups)
	fmt.Printf("operations: %d attempted, %d failed, %d latency samples\n", out.attempted, out.failed, out.samples)
	for _, d := range defs {
		fmt.Printf("  %-32s %14.4f %s\n", d.name, out.values[d.name], d.unit)
		res.Metrics[d.name] = metricJSON{out.values[d.name], d.unit}
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	if out.incorrect != nil {
		fmt.Println("INCORRECT:", out.incorrect)
	} else {
		fmt.Println("check: total order, integrity and validity hold on every process, recovered ones included")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.incorrect != nil {
		return fmt.Errorf("incorrect: %w", out.incorrect)
	}
	return nil
}

// withScratchDir calls fn with a fresh directory under parent and removes
// it afterwards.
func withScratchDir(parent string, fn func(dir string) error) error {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return fn(dir)
}

// runLayers runs the micro set alone.
func runLayers(dir string) error {
	printMachine()
	out := &outcome{values: map[string]float64{}}
	if err := withScratchDir(dir, func(dir string) error { return microMetrics(out, dir) }); err != nil {
		return err
	}
	for _, d := range perLayer {
		if v, ok := out.values[d.name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	return nil
}

// printHeader states what is being measured, on what.
func printHeader(w *workload, opts runOpts) {
	printMachine()
	fmt.Printf("workload: %s — %s\n", w.name, w.why)
	load := fmt.Sprintf("closed loop, %d clients", w.clients)
	if w.clients == 0 {
		load = fmt.Sprintf("open loop, %d/s", w.rate)
	}
	fmt.Printf("load: %s, %d B payloads, seed %d, window %.1f s, %d set-ups, traced: %v\n",
		load, w.payload, opts.seed, opts.seconds, opts.setups, opts.trace)
	fmt.Printf("cluster: N=%d in one OS process, TCP on 127.0.0.1, zero injected network delay, WAL under %s (%s), injected fsync latency %v\n",
		nProcs, opts.dir, fsType(opts.dir), fsyncDelay)
	fmt.Println("latency is processor and timer time plus the injected fsync latency; no real network or disk time is in it")
}

func printMachine() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("commit: %s  go: %s  GOMAXPROCS: %d  cpu: %s\n", commit, runtime.Version(), runtime.GOMAXPROCS(0), cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs 0x%x", uint32(st.Type))
}
