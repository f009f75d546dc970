// Command abcast-demo runs an interactive-ish chaos demonstration: a
// cluster under configurable message loss and continuous crash-recovery
// churn, with a live workload and a final audit of all four Atomic
// Broadcast properties.
//
// Usage:
//
//	abcast-demo -n 5 -loss 0.1 -msgs 100 -churn 2 -duration 5s
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	n := flag.Int("n", 5, "number of processes")
	loss := flag.Float64("loss", 0.10, "per-packet loss probability")
	msgs := flag.Int("msgs", 60, "messages per sender")
	churn := flag.Int("churn", 2, "processes that crash/recover continuously")
	duration := flag.Duration("duration", 4*time.Second, "churn duration")
	seed := flag.Uint64("seed", 42, "random seed")
	policy := flag.String("policy", "leader", "consensus policy: leader|rotating")
	metrics := flag.String("metrics", "", "serve Prometheus /metrics, expvar /debug/vars and the profiler /debug/pprof/ on this address (e.g. :9090)")
	flight := flag.Bool("flight", false, "print the anomaly flight-recorder timeline after the audit")
	flag.Parse()

	if err := run(*n, *loss, *msgs, *churn, *duration, *seed, *policy, *metrics, *flight); err != nil {
		fmt.Fprintln(os.Stderr, "abcast-demo:", err)
		os.Exit(1)
	}
}

func run(n int, loss float64, msgs, churn int, duration time.Duration, seed uint64, policyName, metricsAddr string, flight bool) error {
	if churn >= (n+1)/2 {
		return fmt.Errorf("churn %d would leave no stable majority of %d processes", churn, n)
	}
	policy := consensus.PolicyLeader
	if policyName == "rotating" {
		policy = consensus.PolicyRotating
	}

	fmt.Printf("cluster: n=%d loss=%.0f%% policy=%v — %d senders x %d msgs, %d oscillating processes for %v\n",
		n, loss*100, policy, n-churn, msgs, churn, duration)

	c := harness.NewCluster(harness.Options{
		N:    n,
		Seed: seed,
		Net: transport.MemOptions{
			Seed:     seed,
			Loss:     loss,
			Dup:      0.02,
			MaxDelay: time.Millisecond,
		},
		Core:      core.Config{CheckpointEvery: 20, Delta: 10},
		Consensus: consensus.Config{Policy: policy},
		Obs:       obs.Options{SampleRate: 1}, // demo scale: trace everything
	})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		return err
	}

	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.PromHandler(c.Obs))
		mux.Handle("/debug/vars", expvar.Handler())
		// The profiler, on the same listener: heap, allocs, goroutine,
		// block and mutex by name under Index; the rest are actions.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		for i, p := range c.Obs {
			p.Reg().PublishExpvar(fmt.Sprintf("abcast.p%d", i))
		}
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, mux) }()
		fmt.Printf("metrics: http://%s/metrics (Prometheus), /debug/vars (expvar), /debug/pprof/ (profiler)\n", ln.Addr())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Churned processes oscillate; the rest are senders.
	var schedules []harness.FaultSchedule
	var senders []ids.ProcessID
	for p := 0; p < n; p++ {
		if p >= n-churn {
			schedules = append(schedules, harness.FaultSchedule{
				PID:     ids.ProcessID(p),
				UpFor:   350 * time.Millisecond,
				DownFor: 200 * time.Millisecond,
			})
		} else {
			senders = append(senders, ids.ProcessID(p))
		}
	}
	fctx, stopFaults := context.WithTimeout(ctx, duration)
	defer stopFaults()
	wait := c.RunFaults(fctx, schedules...)

	start := time.Now()
	m, err := c.Run(ctx, harness.Workload{
		Senders:           senders,
		MessagesPerSender: msgs,
		PayloadSize:       64,
	})
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	stopFaults()
	wait()
	fmt.Printf("workload done: %d broadcasts in %v (%.0f msgs/s, mean latency %v)\n",
		m.Count, m.Elapsed.Round(time.Millisecond), m.Throughput(), m.Mean().Round(time.Microsecond))

	all := make([]ids.ProcessID, n)
	for p := range all {
		all[p] = ids.ProcessID(p)
	}
	fmt.Println("waiting for every process to deliver everything...")
	if err := c.AwaitAllDelivered(ctx, all...); err != nil {
		return fmt.Errorf("termination: %w", err)
	}
	fmt.Printf("converged after %v total\n", time.Since(start).Round(time.Millisecond))

	for p := 0; p < n; p++ {
		proto := c.Nodes[p].Proto()
		st := proto.Stats()
		fmt.Printf("  p%d: epoch=%d round=%d delivered=%d replayed=%d transfers(in/out)=%d/%d ckpts=%d\n",
			p, c.Nodes[p].Epoch(), proto.Round(), st.Delivered,
			st.ReplayedRounds, st.StateAdopted, st.StateSent, st.Checkpoints)
	}
	ns := c.Net.Stats()
	fmt.Printf("network: sent=%d delivered=%d dropped=%d duplicated=%d\n",
		ns.Sent, ns.Delivered, ns.Dropped, ns.Duplicated)

	// Stage-latency breakdown from p0's trace plane: where the end-to-end
	// time went for the messages that survived the churn.
	reg := c.Obs[0].Reg()
	for _, name := range []string{"abcast.trace.propose_ns", "abcast.trace.decide_ns", "abcast.trace.deliver_ns", "abcast.trace.e2e_ns"} {
		if s, ok := reg.HistogramSnapshot(name); ok && s.Count > 0 {
			fmt.Printf("  %-28s count=%-5d p50=%-10v p99=%v\n", name, s.Count,
				time.Duration(s.Quantile(0.50)).Round(time.Microsecond),
				time.Duration(s.Quantile(0.99)).Round(time.Microsecond))
		}
	}

	if err := c.VerifyAll(all...); err != nil {
		return fmt.Errorf("AUDIT FAILED: %w", err)
	}
	fmt.Println("audit: validity ✓  integrity ✓  total order ✓  termination ✓")
	if flight {
		fmt.Println("--- flight recorder ---")
		fmt.Print(c.FlightDump())
	}
	return nil
}
