package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// engines returns a fresh instance of every Stable implementation.
func engines(t *testing.T) map[string]Stable {
	t.Helper()
	walStore, err := OpenWAL(t.TempDir(), WALOptions{SyncEvery: 4, MaxSyncDelay: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { walStore.Close() })
	return map[string]Stable{
		"mem": NewMem(),
		"wal": walStore,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.Put("a/k1", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			got, ok, err := st.Get("a/k1")
			if err != nil || !ok || !bytes.Equal(got, []byte("v1")) {
				t.Fatalf("get: %q %v %v", got, ok, err)
			}
			// Overwrite is atomic replacement.
			if err := st.Put("a/k1", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			got, _, _ = st.Get("a/k1")
			if !bytes.Equal(got, []byte("v2")) {
				t.Fatalf("after overwrite: %q", got)
			}
		})
	}
}

func TestGetMissingKey(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			_, ok, err := st.Get("nope")
			if err != nil || ok {
				t.Fatalf("missing key: ok=%v err=%v", ok, err)
			}
		})
	}
}

func TestAppendRecordsInOrder(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				if err := st.Append("log", []byte(fmt.Sprintf("r%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			recs, err := st.Records("log")
			if err != nil || len(recs) != 10 {
				t.Fatalf("records: %d %v", len(recs), err)
			}
			for i, r := range recs {
				if string(r) != fmt.Sprintf("r%d", i) {
					t.Fatalf("record %d = %q", i, r)
				}
			}
		})
	}
}

func TestRecordsOfMissingLog(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			recs, err := st.Records("absent")
			if err != nil || len(recs) != 0 {
				t.Fatalf("absent log: %d %v", len(recs), err)
			}
		})
	}
}

func TestDeleteRemovesCellAndLog(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			st.Put("x", []byte("1"))
			st.Append("x", []byte("2"))
			if err := st.Delete("x"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := st.Get("x"); ok {
				t.Fatal("cell survived delete")
			}
			recs, _ := st.Records("x")
			if len(recs) != 0 {
				t.Fatal("log survived delete")
			}
			// Deleting a missing key is a no-op.
			if err := st.Delete("x"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestListByPrefix(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			st.Put("cons/p/1", []byte("a"))
			st.Put("cons/d/1", []byte("b"))
			st.Put("abcast/ckpt", []byte("c"))
			st.Append("node/log", []byte("d"))
			keys, err := st.List("cons/")
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 2 || keys[0] != "cons/d/1" || keys[1] != "cons/p/1" {
				t.Fatalf("keys = %v", keys)
			}
			all, _ := st.List("")
			if len(all) != 4 {
				t.Fatalf("all = %v", all)
			}
		})
	}
}

// TestEnginesAgreeProperty drives both engines with the same random script
// and checks they expose identical state.
func TestEnginesAgreeProperty(t *testing.T) {
	walStore, err := OpenWAL(t.TempDir(), WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer walStore.Close()
	memStore := NewMem()

	f := func(ops []struct {
		Kind byte
		Key  uint8
		Val  []byte
	}) bool {
		for _, op := range ops {
			key := fmt.Sprintf("k/%d", op.Key%8)
			switch op.Kind % 3 {
			case 0:
				memStore.Put(key, op.Val)
				walStore.Put(key, op.Val)
			case 1:
				memStore.Append(key, op.Val)
				walStore.Append(key, op.Val)
			case 2:
				memStore.Delete(key)
				walStore.Delete(key)
			}
		}
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("k/%d", i)
			mv, mok, _ := memStore.Get(key)
			wv, wok, _ := walStore.Get(key)
			if mok != wok || !bytes.Equal(mv, wv) {
				return false
			}
			mr, _ := memStore.Records(key)
			wr, _ := walStore.Records(key)
			if len(mr) != len(wr) {
				return false
			}
			for j := range mr {
				if !bytes.Equal(mr[j], wr[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAccountedAttributesLayers(t *testing.T) {
	a := NewAccounted(NewMem())
	a.Put("cons/p/1", make([]byte, 10))
	a.Put("cons/d/1", make([]byte, 5))
	a.Append("abcast/unordlog", make([]byte, 7))
	a.Get("node/epoch")
	a.Delete("cons/p/1")

	cons := a.Layer("cons")
	if cons.PutOps != 2 || cons.PutBytes != 15 || cons.DeleteOps != 1 {
		t.Fatalf("cons stats: %+v", cons)
	}
	ab := a.Layer("abcast")
	if ab.AppendOps != 1 || ab.AppendBytes != 7 || ab.LogOps() != 1 {
		t.Fatalf("abcast stats: %+v", ab)
	}
	if a.Layer("node").GetOps != 1 {
		t.Fatal("node get not counted")
	}
	total := a.Total()
	if total.LogOps() != 3 || total.LogBytes() != 22 {
		t.Fatalf("total: %+v", total)
	}
	names := a.LayerNames()
	if len(names) != 3 {
		t.Fatalf("layers: %v", names)
	}
	a.Reset()
	if a.Total().LogOps() != 0 {
		t.Fatal("reset failed")
	}
}

func TestFaultyTripsAtNthOp(t *testing.T) {
	tripped := false
	f := NewFaulty(NewMem())
	f.FailAfter(3, func() { tripped = true })

	if err := f.Put("k1", nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Append("k2", nil); err != nil {
		t.Fatal(err)
	}
	// Third log operation fails.
	if err := f.Put("k3", nil); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("want injected crash, got %v", err)
	}
	if !tripped || !f.Tripped() {
		t.Fatal("trip callback not run")
	}
	// Everything fails until disarmed, including reads (the process is down).
	if _, _, err := f.Get("k1"); !errors.Is(err, ErrInjectedCrash) {
		t.Fatal("reads should fail while tripped")
	}
	f.Disarm()
	if err := f.Put("k4", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Get("k1"); err != nil {
		t.Fatal(err)
	}
}

// TestFaultyDelaysAGroupOnce: writes of one WAL commit group at one
// latency share one delayed completion, each resolving no earlier than the
// latency after the group is durable; a write at another latency gets its
// own; and the trigger still counts and trips per write.
func TestFaultyDelaysAGroupOnce(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{SyncEvery: 1000, MaxSyncDelay: time.Hour, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	f := NewFaulty(w)
	const lat = 30 * time.Millisecond
	f.SetLatency(lat)
	group := []*Completion{f.PutAsync("a", []byte("1")), f.AppendAsync("log", []byte("2")), f.DeleteAsync("b")}
	for i, c := range group {
		if c != group[0] {
			t.Fatalf("write %d of one group got its own delayed completion", i)
		}
	}
	f.SetLatency(2 * lat)
	slower := f.PutAsync("c", []byte("3"))
	if slower == group[0] {
		t.Fatal("a write at another latency shares the group's delayed completion")
	}
	f.FailAfter(2, nil)
	if c := f.PutAsync("d", []byte("4")); c != slower {
		t.Fatal("the next write of the group at the same latency got its own delayed completion")
	}
	if err := f.PutAsync("e", []byte("5")).Wait(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("the second write after FailAfter(2): %v, want the injected crash", err)
	}
	f.Disarm()

	var mu sync.Mutex
	resolved := map[*Completion]time.Duration{}
	start := time.Now() // the group cannot be durable before the Sync below flushes it
	for _, c := range []*Completion{group[0], slower} {
		c.OnDone(func(error) {
			mu.Lock()
			resolved[c] = time.Since(start)
			mu.Unlock()
		})
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Completion{group[0], slower} {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got := resolved[group[0]]; got < lat {
		t.Fatalf("the group's writes resolved %v after it was flushed; latency %v", got, lat)
	}
	if got := resolved[slower]; got < 2*lat {
		t.Fatalf("the slower writes resolved %v after their group was flushed; latency %v", got, 2*lat)
	}
}

func TestMemSizeAndKeyCount(t *testing.T) {
	m := NewMem()
	m.Put("a", make([]byte, 100))
	m.Append("b", make([]byte, 50))
	m.Append("b", make([]byte, 25))
	if m.Size() != 175 {
		t.Fatalf("size = %d", m.Size())
	}
	if m.KeyCount() != 2 {
		t.Fatalf("keys = %d", m.KeyCount())
	}
	m.Delete("b")
	if m.Size() != 100 || m.KeyCount() != 1 {
		t.Fatalf("after delete: size=%d keys=%d", m.Size(), m.KeyCount())
	}
}
