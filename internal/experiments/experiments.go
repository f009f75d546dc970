// Package experiments implements the paper-reproduction suite: one
// function per experiment (E1–E6 and E8–E10), each quantifying a claim of
// the paper (PAPER.md) and returning a printable table, plus the E11–E13
// ablations. E7, the comparison with a crash-stop baseline, is retired
// and its last table is in README; the IDs are not renumbered.
// cmd/abcast-bench runs them. They are tables on a simulated network, not
// performance measurements; those come from bench/.
//
// The paper is a protocol paper without quantitative tables, so the
// experiments measure the claims it states qualitatively: minimal logging
// (§4.3), recovery/replay cost and checkpointing (§5.1), bounded logs
// (§5.2), state transfer (§5.3), batching throughput (§5.4), incremental
// logging (§5.5), the Consensus equivalence (§6.1), and failure-detector
// independence via interchangeable consensus engines (§3.5).
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/rsm"
)

// Scale selects experiment sizes.
type Scale int

// Scales: Quick runs in a few seconds (CI / go test); Full uses sizes
// large enough for the trends to be read off the tables.
const (
	Quick Scale = iota + 1
	Full
)

func (s Scale) pick(quick, full int) int {
	if s == Full {
		return full
	}
	return quick
}

// Result is one experiment's outcome.
type Result struct {
	Table *harness.Table
	Notes []string
}

// ctx returns a generous deadline for one experiment.
func ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Minute)
}

// broadcastN sends count messages round-robin from senders, waiting for
// ordering (basic A-broadcast semantics).
func broadcastN(c *harness.Cluster, cx context.Context, senders []ids.ProcessID, count, payload int) error {
	buf := make([]byte, payload)
	for i := 0; i < count; i++ {
		s := senders[i%len(senders)]
		if _, err := c.Broadcast(cx, s, buf); err != nil {
			return fmt.Errorf("broadcast %d: %w", i, err)
		}
	}
	return nil
}

// kvFold adapts the pure rsm fold as a shared Checkpointer (restores are
// routed per process by the harness wiring).
type kvFold struct{ s *rsm.Store }

var _ core.Checkpointer = kvFold{}

func (k kvFold) Checkpoint(prev []byte, delivered []msg.Message) []byte {
	return k.s.Checkpoint(prev, delivered)
}
func (k kvFold) Restore([]byte) {}

// E1LogOps verifies claim C1 (§4.3): the basic protocol performs zero log
// operations in the broadcast layer — the only forced writes are the
// Consensus proposals (plus consensus-internal acceptor cells) —
// while each §5 option adds measurable, attributable extras.
func E1LogOps(scale Scale) (*Result, error) {
	msgs := scale.pick(30, 200)
	type variant struct {
		name string
		core core.Config
	}
	variants := []variant{
		{"basic (Fig.2)", core.Config{}},
		{"ckpt every 10 (§5.1)", core.Config{CheckpointEvery: 10}},
		{"ckpt+appstate (§5.2)", core.Config{CheckpointEvery: 10, Checkpointer: kvFold{rsm.NewStore()}}},
		{"batched bcast (§5.4)", core.Config{BatchedBroadcast: true}},
		{"batched+incremental (§5.5)", core.Config{BatchedBroadcast: true, IncrementalLog: true}},
	}
	table := harness.NewTable(
		fmt.Sprintf("E1 — stable-storage log operations by layer (n=3, %d msgs, per process avg)", msgs),
		"variant", "abcast ops", "abcast bytes", "cons ops", "cons bytes", "node ops", "extra ops vs consensus")
	res := &Result{Table: table}
	for _, v := range variants {
		c := harness.NewCluster(harness.Options{N: 3, Seed: 1000, Core: v.core})
		if err := c.StartAll(); err != nil {
			c.Stop()
			return nil, err
		}
		cx, cancel := ctx()
		err := broadcastN(c, cx, []ids.ProcessID{0, 1, 2}, msgs, 64)
		if err == nil {
			err = c.AwaitAllDelivered(cx, 0, 1, 2)
		}
		cancel()
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("E1 %s: %w", v.name, err)
		}
		var ab, cons, node float64
		var abBytes, consBytes float64
		for p := 0; p < 3; p++ {
			layers := c.Stores[p].Layers()
			ab += float64(layers["abcast"].LogOps())
			abBytes += float64(layers["abcast"].LogBytes())
			cons += float64(layers["cons"].LogOps())
			consBytes += float64(layers["cons"].LogBytes())
			node += float64(layers["node"].LogOps())
		}
		ab /= 3
		abBytes /= 3
		cons /= 3
		consBytes /= 3
		node /= 3
		table.Add(v.name, ab, abBytes, cons, consBytes, node, ab)
		c.Stop()
	}
	res.Notes = append(res.Notes,
		"paper claim: basic protocol needs no log ops beyond the Consensus' own (abcast ops = 0)",
		"checkpoint/batched variants trade extra log ops for faster recovery / earlier returns (§5)")
	return res, nil
}

// E2Recovery verifies C4/C5a (§5.1): recovery work grows with the number
// of rounds to replay and checkpointing caps it.
func E2Recovery(scale Scale) (*Result, error) {
	roundsList := []int{10, 50}
	if scale == Full {
		roundsList = []int{10, 50, 200, 500}
	}
	table := harness.NewTable(
		"E2 — recovery cost vs history length (n=3, crash p1 after R messages)",
		"R msgs", "checkpoint", "replayed rounds", "recovery time", "recovered from ckpt")
	res := &Result{Table: table}
	for _, rounds := range roundsList {
		for _, every := range []int{0, 10, 100} {
			if every == 100 && rounds < 100 {
				continue
			}
			c := harness.NewCluster(harness.Options{
				N:    3,
				Seed: 2000 + uint64(rounds) + uint64(every),
				Core: core.Config{CheckpointEvery: every},
			})
			if err := c.StartAll(); err != nil {
				c.Stop()
				return nil, err
			}
			cx, cancel := ctx()
			// p1 must participate so it has rounds to replay.
			err := broadcastN(c, cx, []ids.ProcessID{1}, rounds, 32)
			if err == nil {
				err = c.AwaitRound(cx, 1, uint64(rounds/2))
			}
			if err != nil {
				cancel()
				c.Stop()
				return nil, fmt.Errorf("E2 R=%d: %w", rounds, err)
			}
			c.Crash(1)
			dur, err := c.Recover(1)
			if err != nil {
				cancel()
				c.Stop()
				return nil, fmt.Errorf("E2 recover R=%d: %w", rounds, err)
			}
			st := c.Nodes[1].Proto().Stats()
			label := "off"
			if every > 0 {
				label = fmt.Sprintf("every %d", every)
			}
			table.Add(rounds, label, st.ReplayedRounds, dur.Round(time.Microsecond), st.RecoveredFromCkpt)
			cancel()
			c.Stop()
		}
	}
	res.Notes = append(res.Notes,
		"paper claim: without checkpoints the whole history is replayed; checkpoints bound replay to the rounds since the last one")
	return res, nil
}

// E3LogSize verifies C5b (§5.2): without application-level checkpoints the
// stable-storage footprint grows without bound; with them it stays flat.
func E3LogSize(scale Scale) (*Result, error) {
	msgs := scale.pick(120, 600)
	stride := msgs / 4
	type variant struct {
		name string
		core core.Config
	}
	variants := []variant{
		{"basic, no GC", core.Config{}},
		{"ckpt, full queue (§5.1)", core.Config{CheckpointEvery: 10}},
		{"ckpt, app state (§5.2)", core.Config{CheckpointEvery: 10, Checkpointer: kvFold{rsm.NewStore()}}},
	}
	table := harness.NewTable(
		fmt.Sprintf("E3 — stable-storage footprint growth (p0 bytes after each %d msgs)", stride),
		"variant", "25%", "50%", "75%", "100%", "live keys at end")
	res := &Result{Table: table}
	for _, v := range variants {
		c := harness.NewCluster(harness.Options{N: 3, Seed: 3000, Core: v.core})
		if err := c.StartAll(); err != nil {
			c.Stop()
			return nil, err
		}
		cx, cancel := ctx()
		var samples []int
		ok := true
		for step := 0; step < 4; step++ {
			if err := broadcastN(c, cx, []ids.ProcessID{0}, stride, 128); err != nil {
				ok = false
				break
			}
			samples = append(samples, c.MemStore(0).Size())
		}
		cancel()
		if !ok {
			c.Stop()
			return nil, fmt.Errorf("E3 %s failed", v.name)
		}
		table.Add(v.name, samples[0], samples[1], samples[2], samples[3], c.MemStore(0).KeyCount())
		c.Stop()
	}
	res.Notes = append(res.Notes,
		"paper claim: 'the size of the logs grows indefinitely' without application checkpoints; 'a checkpoint of the application state can substitute the associated prefix of the delivered message log'")
	return res, nil
}
