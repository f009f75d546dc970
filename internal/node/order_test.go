package node_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/storage"
	"repro/internal/transport"
)

// reversing resolves its asynchronous writes in reverse issue order: write
// i is durable (4 - i%4)ms after its issue, so of the writes of one step
// the last lands first.
type reversing struct {
	*storage.Faulty
	mu         sync.Mutex
	writes     []*issued
	overtaken  int // writes durable before one issued earlier
	violations []string
}

type issued struct {
	key, val string
	c        *storage.Completion
}

func (w *issued) durable() bool {
	err, done := w.c.Poll()
	return done && err == nil
}

func (s *reversing) PutAsync(key string, val []byte) *storage.Completion {
	return s.issue(key, val, s.Faulty.PutAsync)
}

func (s *reversing) AppendAsync(key string, rec []byte) *storage.Completion {
	return s.issue(key, rec, s.Faulty.AppendAsync)
}

func (s *reversing) issue(key string, val []byte, do func(string, []byte) *storage.Completion) *storage.Completion {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.SetLatency(time.Duration(4-len(s.writes)%4) * time.Millisecond)
	w := &issued{key: key, val: string(val), c: do(key, val)}
	s.writes = append(s.writes, w)
	w.c.OnDone(func(error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, e := range s.writes {
			if e == w {
				break
			}
			if !e.durable() {
				s.overtaken++
				break
			}
		}
	})
	return w.c
}

// durable reports whether a write of key whose value contains part is
// durable. s.mu held.
func (s *reversing) durable(key, part string) bool {
	for _, w := range s.writes {
		if w.key == key && strings.Contains(w.val, part) && w.durable() {
			return true
		}
	}
	return false
}

// TestWriteCompletionsReachLayersInIssueOrder runs a node over a store that
// resolves its writes in reverse order. Consensus and the broadcast core
// write to it interleaved, from concurrent Broadcast calls and pipelined
// rounds, and each must see its completions in issue order: a Broadcast
// returns only once its own Unordered record is durable, and consensus
// decides an instance only once its acceptor cell is (a process alone
// decides on its own accepted reply, which leaves once that cell is): a
// round that commits has it durable.
func TestWriteCompletionsReachLayersInIssueOrder(t *testing.T) {
	st := &reversing{Faulty: storage.NewFaulty(storage.NewMem())}
	net := transport.NewMem(1, transport.MemOptions{Seed: 5})
	defer net.Close()
	onRound := func(_ ids.GroupID, k uint64, _ []core.Delivery) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if !st.durable(fmt.Sprintf("cons/a/%016x", k), "") {
			st.violations = append(st.violations, fmt.Sprintf("round %d committed before an acceptor cell of it was durable", k))
		}
	}
	nd := node.New(node.Config{N: 1, Core: core.Config{
		BatchedBroadcast: true, IncrementalLog: true, PipelineDepth: 4, OnRound: onRound,
	}}, st, net)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := nd.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer nd.Crash()

	const senders, each = 8, 8
	var wg sync.WaitGroup
	for g := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				payload := fmt.Sprintf("g%d-m%d;", g, i)
				if _, err := nd.Broadcast(ctx, []byte(payload)); err != nil {
					t.Error(err)
					return
				}
				st.mu.Lock()
				if !st.durable(core.KeyUnordLog, payload) {
					st.violations = append(st.violations, "Broadcast of "+payload+" returned before its record was durable")
				}
				st.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for p := nd.Proto(); ; time.Sleep(time.Millisecond) {
		if _, seq := p.Sequence(); len(seq) == senders*each {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("not every message was delivered")
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.violations) > 0 {
		t.Fatalf("%d violations, the first: %s", len(st.violations), st.violations[0])
	}
	if st.overtaken == 0 {
		t.Fatal("no write was durable before an earlier one: the store did not reorder")
	}
}
