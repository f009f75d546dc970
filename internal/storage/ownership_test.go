package storage

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/testenv"
)

// TestLogCallsBorrowTheirArgument is the ownership rule at the storage
// seam, on every engine and on both the blocking and the asynchronous
// forms: the value may be scribbled on as soon as the call returns — before
// the record is durable, while it still sits in the WAL's commit queue — and
// what is read back (now, and after the WAL is reopened from disk) is what
// was passed. What Get and Records hand out is the collector's own:
// scribbling on it changes nothing in the store.
func TestLogCallsBorrowTheirArgument(t *testing.T) {
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xEE
		}
	}
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			ast := Async(st)
			var pending []*Completion
			for i := 0; i < 8; i++ {
				val := []byte(fmt.Sprintf("cell value %d", i))
				rec := []byte(fmt.Sprintf("log record %d", i))
				if i%2 == 0 {
					pending = append(pending, ast.PutAsync(fmt.Sprintf("c/%d", i), val), ast.AppendAsync("l", rec))
				} else {
					if err := st.Put(fmt.Sprintf("c/%d", i), val); err != nil {
						t.Fatal(err)
					}
					if err := st.Append("l", rec); err != nil {
						t.Fatal(err)
					}
				}
				scribble(val)
				scribble(rec)
			}
			for _, c := range pending {
				if err := c.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			check := func(st Stable) {
				t.Helper()
				recs, err := st.Records("l")
				if err != nil || len(recs) != 8 {
					t.Fatalf("records: %d, %v", len(recs), err)
				}
				for i := 0; i < 8; i++ {
					got, ok, err := st.Get(fmt.Sprintf("c/%d", i))
					if want := fmt.Sprintf("cell value %d", i); err != nil || !ok || string(got) != want {
						t.Fatalf("cell %d: %q, %v, %v", i, got, ok, err)
					}
					if want := fmt.Sprintf("log record %d", i); string(recs[i]) != want {
						t.Fatalf("record %d: %q", i, recs[i])
					}
					scribble(got)
					scribble(recs[i])
				}
			}
			check(st) // scribbles on everything it reads ...
			check(st) // ... which must not show on a second read
			if w, ok := st.(*WAL); ok {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenWAL(w.dir, WALOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				check(re)
			}
		})
	}
}

// TestWALPutAllocBudget fails when logging a value allocates anything
// value-sized: the one copy is the issue's memcpy into the reused pending
// group buffer, which the committer seals and writes as it is, and the
// index keeps only where the record is. Both write forms are held to an
// eighth of the value per operation.
func TestWALPutAllocBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	w, err := OpenWAL(t.TempDir(), WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	val := bytes.Repeat([]byte{0xA5}, 32<<10)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("cons/a/%016x", i)
	}
	for name, write := range map[string]func(i int) *Completion{
		"PutAsync":    func(i int) *Completion { return w.PutAsync(keys[i%len(keys)], val) },
		"AppendAsync": func(i int) *Completion { return w.AppendAsync(keys[i%len(keys)], val) },
	} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := write(i)
				if i%8 == 7 {
					if err := c.Wait(); err != nil { // let the committer keep up
						b.Fatal(err)
					}
				}
			}
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
		})
		got, budget := res.AllocedBytesPerOp(), int64(len(val))/8
		t.Logf("WAL.%s of a %d B value: %d B/op, %d allocs/op", name, len(val), got, res.AllocsPerOp())
		if got >= budget {
			t.Errorf("WAL.%s of a %d B value allocates %d B/op, budget %d", name, len(val), got, budget)
		}
	}
}

// TestCompletionMakesItsChannelLazily: the hot path (newCompletion,
// OnDone, complete) allocates the 48-byte Completion and nothing else;
// Done and Wait make a channel on demand and see a resolution that
// happened before or after they asked; callbacks, the channel's included,
// run in registration order.
func TestCompletionMakesItsChannelLazily(t *testing.T) {
	if size := unsafe.Sizeof(Completion{}); size > 48 {
		t.Fatalf("a Completion is %d bytes; want at most 48", size)
	}
	var order []int
	before, after := newCompletion(), newCompletion()
	before.OnDone(func(error) { order = append(order, 1) })
	ch := before.Done() // asked first, resolved later
	before.OnDone(func(error) {
		select {
		case <-ch:
			order = append(order, 2)
		default:
			t.Error("a callback registered after Done ran before its channel closed")
		}
	})
	before.OnDone(func(error) { order = append(order, 3) })
	before.complete(nil)
	after.complete(ErrClosed) // resolved first, asked later
	if !slices.Equal(order, []int{1, 2, 3}) {
		t.Fatalf("callbacks ran in the order %v; want [1 2 3]", order)
	}
	select {
	case <-after.Done():
	default:
		t.Fatal("Done channel obtained after resolution is not closed")
	}
	if err := after.Wait(); err != ErrClosed {
		t.Fatalf("Wait after resolution: %v", err)
	}
	if c := completed(nil); c.Wait() != nil {
		t.Fatal("completed() must resolve without error")
	}
	if testenv.Race {
		return
	}
	fn := func(error) {}
	if n := testing.AllocsPerRun(100, func() {
		c := newCompletion()
		c.OnDone(fn)
		c.complete(nil)
	}); n != 1 {
		t.Fatalf("a completion with one callback allocates %.0f objects; want 1, itself", n)
	}
	if n := testing.AllocsPerRun(100, func() { completed(nil).Wait() }); n != 1 {
		t.Fatalf("Wait on a resolved completion allocates %.0f objects beyond it; want none", n-1)
	}
}
