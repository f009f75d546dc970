// Command tcp-cluster runs the full stack over real loopback TCP sockets
// with the fsyncing group-commit write-ahead log as stable storage — the
// deployment configuration rather than the simulation one. A process is
// crashed and recovered from its log to show that recovery works
// end-to-end through the production storage and transport engines.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/abcast"
)

const n = 3

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcp-cluster:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	dir, err := os.MkdirTemp("", "abcast-tcp-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	addrs := []string{"127.0.0.1:42611", "127.0.0.1:42612", "127.0.0.1:42613"}
	net := abcast.NewTCPNetwork(addrs)

	procs := make([]*abcast.Process, n)
	for pid := 0; pid < n; pid++ {
		st, err := abcast.NewWALStorage(filepath.Join(dir, fmt.Sprintf("p%d", pid)), abcast.WALOptions{})
		if err != nil {
			return err
		}
		defer st.Close() // runs after the process's Crash below
		procs[pid], err = abcast.NewProcess(abcast.Config{
			PID: abcast.ProcessID(pid),
			N:   n,
		}, st, net)
		if err != nil {
			return err
		}
		if err := procs[pid].Start(ctx); err != nil {
			return fmt.Errorf("start p%d: %w", pid, err)
		}
		defer procs[pid].Crash()
	}
	fmt.Printf("3 processes listening on %v, stable storage under %s\n", addrs, dir)

	var lastID abcast.MsgID
	for i := 0; i < 6; i++ {
		id, err := procs[i%n].Broadcast(ctx, []byte(fmt.Sprintf("tcp-msg-%d", i)))
		if err != nil {
			return fmt.Errorf("broadcast %d: %w", i, err)
		}
		lastID = id
	}
	fmt.Println("6 messages ordered over TCP")

	// Crash p2 (its sockets close; peers' sends to it start failing) and
	// recover it from the on-disk log.
	procs[2].Crash()
	fmt.Println("p2 crashed; recovering from its write-ahead log...")
	if err := procs[2].Start(ctx); err != nil {
		return fmt.Errorf("recover p2: %w", err)
	}
	st := procs[2].Stats()
	fmt.Printf("p2 replayed %d rounds from its log\n", st.ReplayedRounds)

	// p2 must still hold the full order and keep participating.
	if !procs[2].Delivered(lastID) {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) && !procs[2].Delivered(lastID) {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !procs[2].Delivered(lastID) {
		return fmt.Errorf("p2 lost history across disk recovery")
	}
	if _, err := procs[2].Broadcast(ctx, []byte("after-recovery")); err != nil {
		return fmt.Errorf("post-recovery broadcast: %w", err)
	}
	_, suffix := procs[2].Sequence()
	fmt.Printf("p2 delivery sequence after recovery (%d messages):\n", len(suffix))
	for _, d := range suffix {
		fmt.Printf("  pos %d (round %d): %s\n", d.Pos, d.Round, d.Msg.Payload)
	}
	fmt.Println("disk + TCP recovery verified ✓")
	return nil
}
