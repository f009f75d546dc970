package storage

import (
	"errors"
	"strings"
	"testing"
)

func TestHeldReleaseAndCrash(t *testing.T) {
	isA := func(key string) bool { return strings.HasPrefix(key, "a/") }
	all := func(string) bool { return true }
	h := NewHeld(func(key string) bool { return key != "free" })

	if err, done := h.PutAsync("free", []byte("x")).Poll(); !done || err != nil {
		t.Fatalf("a key the predicate does not select must complete at once: %v %v", err, done)
	}
	a1 := h.PutAsync("a/1", []byte("one"))
	b1 := h.AppendAsync("b/log", []byte("rec"))
	a2 := h.PutAsync("a/1", []byte("two")) // same cell: issue order decides
	// The blocking form goes straight to the Mem.
	if err := h.Put("c/1", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	del := h.DeleteAsync("c/1")
	if n := h.Pending(all); n != 4 {
		t.Fatalf("pending = %d, want 4", n)
	}
	for _, c := range []*Completion{a1, b1, a2, del} {
		if _, done := c.Poll(); done {
			t.Fatal("a held operation resolved before Release")
		}
	}
	if _, ok, _ := h.Get("a/1"); ok {
		t.Fatal("a held write is visible to a read")
	}

	if n := h.Release(isA); n != 2 {
		t.Fatalf("released %d, want 2", n)
	}
	if err := a1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := a2.Wait(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := h.Get("a/1"); !ok || string(v) != "two" {
		t.Fatalf("a/1 = %q, %v: writes must apply in issue order", v, ok)
	}
	if _, done := b1.Poll(); done {
		t.Fatal("Release resolved an operation its match did not select")
	}

	h.Crash()
	if err := b1.Wait(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("append after Crash: %v", err)
	}
	if err := del.Wait(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("delete after Crash: %v", err)
	}
	if recs, _ := h.Records("b/log"); len(recs) != 0 {
		t.Fatal("a dropped append reached the log")
	}
	if _, ok, _ := h.Get("c/1"); !ok {
		t.Fatal("a dropped delete removed its cell")
	}
	if n := h.Pending(all); n != 0 {
		t.Fatalf("pending after Crash = %d", n)
	}
}
