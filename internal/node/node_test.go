package node_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/storage"
	"repro/internal/transport"
)

func TestEpochIncrementsPerIncarnation(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 201})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[0].Epoch(); got != 1 {
		t.Fatalf("first epoch = %d", got)
	}
	c.Crash(0)
	if got := c.Nodes[0].Epoch(); got != 0 {
		t.Fatalf("down epoch = %d", got)
	}
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[0].Epoch(); got != 2 {
		t.Fatalf("second epoch = %d", got)
	}
	c.Crash(0)
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[0].Epoch(); got != 3 {
		t.Fatalf("third epoch = %d", got)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 202})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[0].Start(context.Background()); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestCrashIsIdempotent(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 203})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	c.Crash(1) // no-op, no panic
	if c.Nodes[1].Up() {
		t.Fatal("still up")
	}
}

func TestBroadcastWhileDownFails(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 204})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	c.Crash(2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.Broadcast(ctx, 2, []byte("x")); err == nil {
		t.Fatal("broadcast on down node accepted")
	}
	if c.Nodes[2].Proto() != nil || c.Nodes[2].Detector() != nil {
		t.Fatal("down node exposes live components")
	}
}

// TestNodeIsDownUntilRecoveryEnds holds p0's recovery inside its replay
// phase, on a logged proposal that no quorum can decide while p1 and p2
// are down. For that whole window the node answers as down, and a Crash
// racing the boot ends it cleanly (run it with -race).
func TestNodeIsDownUntilRecoveryEnds(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 206})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	c.Crash(1)
	c.Crash(2)
	if _, err := c.BroadcastAsync(0, []byte("undecidable")); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok, _ := c.Stores[0].Get("cons/p/0000000000000000"); ok { // round 0's proposal cell
			break
		}
		if ctx.Err() != nil {
			t.Fatal("p0 never logged its proposal")
		}
		time.Sleep(time.Millisecond)
	}
	c.Crash(0)

	done := make(chan error, 1)
	go func() {
		_, err := c.Recover(0)
		done <- err
	}()
	for !c.Nodes[0].Up() {
		if ctx.Err() != nil {
			t.Fatal("the boot never began")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("recovery finished without a quorum: %v", err)
	default:
	}
	if c.Nodes[0].Proto() != nil {
		t.Fatal("a booting node exposes its protocol")
	}
	if _, err := c.Nodes[0].Broadcast(ctx, []byte("x")); !errors.Is(err, node.ErrDown) {
		t.Fatalf("broadcast during recovery: %v, want ErrDown", err)
	}

	c.Crash(0)
	if err := <-done; err == nil {
		t.Fatal("a boot interrupted by a crash reported success")
	}
	if c.Nodes[0].Up() {
		t.Fatal("crashed node still up")
	}
}

// TestCrashRacingStartIsClean crashes p0 the moment each boot publishes
// its incarnation, while the layers are still starting: the crash must
// win cleanly (run it with -race), and the next boot must work.
func TestCrashRacingStartIsClean(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 207})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		c.Crash(0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = c.Recover(0)
		}()
	spin:
		for !c.Nodes[0].Up() {
			select {
			case <-done:
				break spin
			default:
				runtime.Gosched()
			}
		}
		c.Crash(0)
		<-done
	}
	c.Crash(0)
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := c.Broadcast(ctx, 0, []byte("after the races")); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
}

// slowDetach is a network whose endpoints take a while to close, so a
// crash's teardown outlasts the moment the node reads as down.
type slowDetach struct{ *transport.Mem }

func (n slowDetach) Attach(pid ids.ProcessID) (transport.Endpoint, error) {
	ep, err := n.Mem.Attach(pid)
	return slowClose{ep}, err
}

type slowClose struct{ transport.Endpoint }

func (ep slowClose) Close() error {
	time.Sleep(5 * time.Millisecond)
	return ep.Endpoint.Close()
}

// TestRestartRightAfterAStorageTripCrash: a storage trip crashes the node
// from a goroutine of its own, and the node is started again as soon as it
// reads as down, while that crash is still tearing the incarnation down
// (its endpoint takes a while to detach). The start waits for the
// teardown instead of failing to attach.
func TestRestartRightAfterAStorageTripCrash(t *testing.T) {
	st := storage.NewFaulty(storage.NewMem())
	mem := transport.NewMem(1, transport.MemOptions{Seed: 7})
	defer mem.Close()
	nd := node.New(node.Config{N: 1}, st, slowDetach{mem})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := nd.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer nd.Crash()
	st.FailAfter(2, func() { go nd.Crash() })
	for !st.Tripped() {
		bctx, bcancel := context.WithTimeout(ctx, 50*time.Millisecond)
		_, _ = nd.Broadcast(bctx, []byte("before"))
		bcancel()
	}
	for nd.Up() {
		runtime.Gosched()
	}
	st.Disarm()
	if err := nd.Start(ctx); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if _, err := nd.Broadcast(ctx, []byte("after")); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAtEveryEarlyLogOp drives a fixed workload while crashing p1 at
// the Nth stable-storage log operation, for a sweep of N. Whatever the
// crash point — mid-proposal, mid-acceptor-update, mid-decision — safety
// must hold after recovery. This is the §4.2 "crashes at critical points"
// argument, mechanized.
func TestCrashAtEveryEarlyLogOp(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point sweep is slow")
	}
	for _, failAt := range []int64{1, 2, 3, 5, 8, 13, 21} {
		failAt := failAt
		t.Run(fmt.Sprintf("op%d", failAt), func(t *testing.T) {
			c := harness.NewCluster(harness.Options{
				N:                   3,
				Seed:                300 + uint64(failAt),
				InjectFaultyStorage: true,
			})
			defer c.Stop()
			if err := c.StartAll(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			// Arm p1: its storage dies at the failAt-th log write;
			// the trip crashes the node from a fresh goroutine.
			c.Faults[1].FailAfter(failAt, func() { go c.Crash(1) })

			for i := 0; i < 6; i++ {
				sender := ids.ProcessID(i % 2) // p0 and p1 both send
				if sender == 1 && !c.Nodes[1].Up() {
					sender = 0
				}
				bctx, bcancel := context.WithTimeout(ctx, 20*time.Second)
				_, err := c.Broadcast(bctx, sender, []byte(fmt.Sprintf("m%d", i)))
				bcancel()
				if err != nil && ctx.Err() != nil {
					t.Fatalf("broadcast %d: %v", i, err)
				}
			}
			// Wait until the trip fired (or accept that the workload
			// was too small to reach it), then recover p1.
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) && !c.Faults[1].Tripped() {
				time.Sleep(5 * time.Millisecond)
			}
			if c.Nodes[1].Up() {
				c.Crash(1)
			}
			if _, err := c.Recover(1); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRepeatedCrashRecoverCycles(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 205})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for cycle := 0; cycle < 5; cycle++ {
		if _, err := c.Broadcast(ctx, 0, []byte(fmt.Sprintf("cycle%d", cycle))); err != nil {
			t.Fatal(err)
		}
		c.Crash(1)
		if _, err := c.Recover(1); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[1].Epoch(); got != 6 {
		t.Fatalf("epoch after 5 cycles = %d", got)
	}
}
