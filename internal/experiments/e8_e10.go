package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/reduction"
	"repro/internal/transport"
)

// E8FaultStorm verifies C2/C3: under message loss and continuous
// crash-recovery churn of a minority, good processes keep delivering and
// all four properties hold.
func E8FaultStorm(scale Scale) (*Result, error) {
	perSender := scale.pick(15, 60)
	stormFor := time.Duration(scale.pick(2, 6)) * time.Second
	table := harness.NewTable(
		fmt.Sprintf("E8 — liveness under fault storms (n=5, 3 senders x %d msgs)", perSender),
		"loss", "churn", "msgs/s", "deliveries", "state transfers", "safety")
	res := &Result{Table: table}
	for _, loss := range []float64{0, 0.10, 0.30} {
		for _, churn := range []bool{false, true} {
			c := harness.NewCluster(harness.Options{
				N:    5,
				Seed: 8000 + uint64(loss*100),
				Net: transport.MemOptions{
					Seed:     8000 + uint64(loss*100),
					Loss:     loss,
					Dup:      0.02,
					MaxDelay: time.Millisecond,
				},
				Core: core.Config{CheckpointEvery: 20, Delta: 10},
				Consensus: consensus.Config{
					RetryMin: 3 * time.Millisecond,
					RetryMax: 60 * time.Millisecond,
				},
			})
			if err := c.StartAll(); err != nil {
				c.Stop()
				return nil, err
			}
			cx, cancel := ctx()
			wait := func() {}
			stopFaults := func() {}
			if churn {
				fctx, fcancel := context.WithTimeout(cx, stormFor)
				stopFaults = fcancel
				wait = c.RunFaults(fctx,
					harness.FaultSchedule{PID: 3, UpFor: 300 * time.Millisecond, DownFor: 150 * time.Millisecond},
					harness.FaultSchedule{PID: 4, UpFor: 250 * time.Millisecond, DownFor: 200 * time.Millisecond},
				)
			}
			m, err := c.Run(cx, harness.Workload{
				Senders:           []ids.ProcessID{0, 1, 2},
				MessagesPerSender: perSender,
				PayloadSize:       64,
			})
			stopFaults()
			wait()
			if err == nil {
				err = c.AwaitAllDelivered(cx, 0, 1, 2, 3, 4)
			}
			cancel()
			if err != nil {
				c.Stop()
				return nil, fmt.Errorf("E8 loss=%.2f churn=%v: %w", loss, churn, err)
			}
			transfers := uint64(0)
			for p := 0; p < 5; p++ {
				if proto := c.Nodes[p].Proto(); proto != nil {
					transfers += proto.Stats().StateAdopted
				}
			}
			safety := "ok"
			if verr := c.VerifySafety(); verr != nil {
				safety = verr.Error()
			}
			churnLabel := "none"
			if churn {
				churnLabel = "p3+p4 oscillate"
			}
			table.Add(fmt.Sprintf("%.0f%%", loss*100), churnLabel,
				m.Throughput(), c.Rec.Deliveries(), transfers, safety)
			c.Stop()
		}
	}
	res.Notes = append(res.Notes,
		"paper claim: the protocol is non-blocking — good processes deliver as long as Consensus terminates, regardless of bad-process oscillation (§1, §5.6)")
	return res, nil
}

// E9Reduction verifies §6.1: Consensus implemented over Atomic Broadcast
// decides, agrees, and keeps up a useful decision rate — closing the
// equivalence loop.
func E9Reduction(scale Scale) (*Result, error) {
	instances := scale.pick(20, 100)
	table := harness.NewTable(
		fmt.Sprintf("E9 — Consensus from Atomic Broadcast (n=3, %d instances, 3 concurrent proposers)", instances),
		"instances", "decisions/s", "agreement", "validity")
	res := &Result{Table: table}

	conses := make([]*reduction.Consensus, 3)
	for i := range conses {
		conses[i] = reduction.New()
	}
	c := harness.NewCluster(harness.Options{
		N:    3,
		Seed: 9000,
		OnDeliver: func(pid ids.ProcessID, d core.Delivery) {
			conses[pid].Tap(d)
		},
	})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		return nil, err
	}
	cx, cancel := ctx()
	defer cancel()

	start := time.Now()
	var wg sync.WaitGroup
	decisions := make([][][]byte, 3)
	errs := make([]error, 3)
	for p := 0; p < 3; p++ {
		decisions[p] = make([][]byte, instances)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for inst := 0; inst < instances; inst++ {
				v := []byte(fmt.Sprintf("p%d-i%d", p, inst))
				dec, err := conses[p].Propose(cx, c.Nodes[p].Proto(), uint64(inst), v)
				if err != nil {
					errs[p] = err
					return
				}
				decisions[p][inst] = dec
			}
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("E9 p%d: %w", p, err)
		}
	}
	agreement, validity := "ok", "ok"
	for inst := 0; inst < instances; inst++ {
		for p := 1; p < 3; p++ {
			if !bytes.Equal(decisions[0][inst], decisions[p][inst]) {
				agreement = fmt.Sprintf("VIOLATED at %d", inst)
			}
		}
		valid := false
		for p := 0; p < 3; p++ {
			if string(decisions[0][inst]) == fmt.Sprintf("p%d-i%d", p, inst) {
				valid = true
			}
		}
		if !valid {
			validity = fmt.Sprintf("VIOLATED at %d", inst)
		}
	}
	table.Add(instances, float64(instances)/elapsed.Seconds(), agreement, validity)
	res.Notes = append(res.Notes,
		"paper claim: 'to propose a value a process atomically broadcasts it; the first value to be delivered can be chosen as the decided value' — both problems are equivalent (§6.1)")
	return res, nil
}

// E10Engines verifies the black-box property (§3.5, C2): the broadcast
// transformation runs unchanged over two different crash-recovery
// consensus engines (Ω-leader-driven vs rotating coordinator), both under
// churn.
func E10Engines(scale Scale) (*Result, error) {
	perSender := scale.pick(20, 100)
	table := harness.NewTable(
		fmt.Sprintf("E10 — interchangeable consensus engines (n=3, 3 senders x %d msgs, one crash/recover)", perSender),
		"engine", "msgs/s", "mean latency", "safety after recovery")
	res := &Result{Table: table}
	for _, policy := range []consensus.Policy{consensus.PolicyLeader, consensus.PolicyRotating} {
		c := harness.NewCluster(harness.Options{
			N:         3,
			Seed:      10000 + uint64(policy),
			Consensus: consensus.Config{Policy: policy},
		})
		if err := c.StartAll(); err != nil {
			c.Stop()
			return nil, err
		}
		cx, cancel := ctx()
		m, err := c.Run(cx, harness.Workload{
			Senders:           []ids.ProcessID{0, 1, 2},
			MessagesPerSender: perSender / 2,
			PayloadSize:       64,
		})
		if err == nil {
			c.Crash(1)
			_, err = c.Recover(1)
		}
		var m2 harness.Metrics
		if err == nil {
			m2, err = c.Run(cx, harness.Workload{
				Senders:           []ids.ProcessID{0, 1, 2},
				MessagesPerSender: perSender / 2,
				PayloadSize:       64,
				Seed:              2,
			})
		}
		if err == nil {
			err = c.AwaitAllDelivered(cx, 0, 1, 2)
		}
		cancel()
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("E10 %v: %w", policy, err)
		}
		safety := "ok"
		if verr := c.VerifySafety(); verr != nil {
			safety = verr.Error()
		}
		total := m.Count + m2.Count
		elapsed := m.Elapsed + m2.Elapsed
		lat := (m.Mean() + m2.Mean()) / 2
		table.Add(policy.String(), float64(total)/elapsed.Seconds(),
			lat.Round(10*time.Microsecond), safety)
		c.Stop()
	}
	res.Notes = append(res.Notes,
		"paper claim: the transformation uses Consensus as a black box and 'is not bound to any particular implementation of Consensus' (§7)")
	return res, nil
}

// registry is the one table of experiments; All and ByName both read it.
var registry = []struct {
	name string
	fn   func(Scale) (*Result, error)
}{
	{"E1", E1LogOps}, {"E2", E2Recovery}, {"E3", E3LogSize},
	{"E4", E4CatchUp}, {"E5", E5Batching}, {"E6", E6IncrementalLog},
	{"E8", E8FaultStorm}, {"E9", E9Reduction}, {"E10", E10Engines},
	{"E11", E11FDTimeout}, {"E12", E12GossipInterval}, {"E13", E13GroupSize},
}

// All runs every experiment at the given scale, in order.
func All(scale Scale) ([]*Result, error) {
	var out []*Result
	for _, e := range registry {
		r, err := e.fn(scale)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ByName returns the experiment runner with the given id (e.g. "E4").
func ByName(name string) (func(Scale) (*Result, error), bool) {
	for _, e := range registry {
		if e.name == name {
			return e.fn, true
		}
	}
	return nil, false
}
