// Command bank-ledger demonstrates §6.2: a deferred-update replicated
// database. Transfers between accounts execute optimistically against a
// local replica, then their read/write sets are atomically broadcast;
// every replica certifies them in the same total order, so conflicting
// transfers get the same commit/abort verdict everywhere and no money is
// ever created or destroyed — even across a replica crash and recovery.
package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/abcast"
)

const (
	n        = 3
	accounts = 4
	initial  = 1000
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bank-ledger:", err)
		os.Exit(1)
	}
}

type bank struct {
	proc *abcast.Process
	kv   *abcast.KVStore
}

// transfer executes a deferred-update transaction moving amount from one
// account to another on the local replica, then broadcasts it for
// certification. It returns the replica-agreed verdict.
func (b *bank) transfer(ctx context.Context, txID, from, to string, amount int) (bool, error) {
	reads := b.kv.Begin(from, to)
	fromBal, _, _ := b.kv.Get(from)
	toBal, _, _ := b.kv.Get(to)
	fb, _ := strconv.Atoi(fromBal)
	tb, _ := strconv.Atoi(toBal)
	if fb < amount {
		return false, nil // insufficient funds: abort locally
	}
	tx := abcast.Tx{
		ID:    txID,
		Reads: reads,
		Writes: map[string]string{
			from: strconv.Itoa(fb - amount),
			to:   strconv.Itoa(tb + amount),
		},
	}
	if _, err := b.proc.Broadcast(ctx, abcast.EncodeTx(tx)); err != nil {
		return false, err
	}
	committed, known := b.kv.Outcome(txID)
	if !known {
		return false, fmt.Errorf("tx %s delivered but verdict unknown", txID)
	}
	return committed, nil
}

func (b *bank) total() int {
	sum := 0
	for a := 0; a < accounts; a++ {
		v, _, _ := b.kv.Get("acct:" + strconv.Itoa(a))
		x, _ := strconv.Atoi(v)
		sum += x
	}
	return sum
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 21, Loss: 0.02})
	defer net.Close()

	banks := make([]*bank, n)
	for pid := 0; pid < n; pid++ {
		kv := abcast.NewKVStore()
		b := &bank{kv: kv}
		cfg := abcast.Config{
			PID:       abcast.ProcessID(pid),
			N:         n,
			OnDeliver: func(d abcast.Delivery) { kv.Apply(d) },
			// On recovery the basic protocol re-delivers the whole
			// history; the replica resets first.
			OnRestore: func(s abcast.Snapshot) { kv.Restore(s.App) },
		}
		var err error
		b.proc, err = abcast.NewProcess(cfg, abcast.NewMemStorage(), net)
		if err != nil {
			return err
		}
		if err := b.proc.Start(ctx); err != nil {
			return fmt.Errorf("start p%d: %w", pid, err)
		}
		defer b.proc.Crash()
		banks[pid] = b
	}

	// Seed the accounts through the total order.
	for a := 0; a < accounts; a++ {
		key := "acct:" + strconv.Itoa(a)
		if _, err := banks[0].proc.Broadcast(ctx, abcast.EncodePut(key, strconv.Itoa(initial))); err != nil {
			return err
		}
	}
	fmt.Printf("seeded %d accounts with %d each (total %d)\n", accounts, initial, accounts*initial)

	// Concurrent conflicting transfers from all replicas.
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed, aborted := 0, 0
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				from := "acct:" + strconv.Itoa((pid+i)%accounts)
				to := "acct:" + strconv.Itoa((pid+i+1)%accounts)
				txID := fmt.Sprintf("tx-p%d-%d", pid, i)
				ok, err := banks[pid].transfer(ctx, txID, from, to, 50)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", txID, err)
					return
				}
				mu.Lock()
				if ok {
					committed++
				} else {
					aborted++
				}
				mu.Unlock()
			}
		}(pid)
	}
	wg.Wait()
	fmt.Printf("transfers: %d committed, %d aborted (conflicts detected identically everywhere)\n",
		committed, aborted)

	// Crash and recover a replica mid-flight, then verify convergence
	// and conservation of money on every replica.
	banks[1].proc.Crash()
	if err := banks[1].proc.Start(ctx); err != nil {
		return fmt.Errorf("recover p1: %w", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		fp := banks[0].kv.Fingerprint()
		if banks[1].kv.Fingerprint() == fp && banks[2].kv.Fingerprint() == fp {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for pid := 0; pid < n; pid++ {
		total := banks[pid].total()
		c, a := banks[pid].kv.CommitStats()
		fmt.Printf("replica %d: total=%d committed=%d aborted=%d\n", pid, total, c, a)
		if total != accounts*initial {
			return fmt.Errorf("MONEY NOT CONSERVED at replica %d: %d", pid, total)
		}
	}
	fmt.Println("money conserved across crash, recovery and conflicts ✓")
	return nil
}
