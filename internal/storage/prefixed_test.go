package storage

import (
	"reflect"
	"testing"
)

func TestPrefixedNamespacing(t *testing.T) {
	shared := NewMem()
	a := NewPrefixed(shared, "g0")
	b := NewPrefixed(shared, "g1/") // trailing separator is optional

	if err := a.Put("cons/cell", []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("cons/cell", []byte("B")); err != nil {
		t.Fatal(err)
	}

	// Same key, different namespaces: no collision.
	got, ok, err := a.Get("cons/cell")
	if err != nil || !ok || string(got) != "A" {
		t.Fatalf("a.Get = %q,%v,%v; want A", got, ok, err)
	}
	got, ok, err = b.Get("cons/cell")
	if err != nil || !ok || string(got) != "B" {
		t.Fatalf("b.Get = %q,%v,%v; want B", got, ok, err)
	}

	// The shared engine sees qualified keys.
	if _, ok, _ := shared.Get("g0/cons/cell"); !ok {
		t.Fatal("qualified key g0/cons/cell missing from shared engine")
	}

	// Deleting in one namespace leaves the other untouched.
	if err := a.Delete("cons/cell"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Get("cons/cell"); ok {
		t.Fatal("a still sees deleted key")
	}
	if _, ok, _ := b.Get("cons/cell"); !ok {
		t.Fatal("b lost its key to a's delete")
	}
}

func TestPrefixedAppendRecordsAndList(t *testing.T) {
	shared := NewMem()
	a := NewPrefixed(shared, "g0")
	b := NewPrefixed(shared, "g1")

	for _, rec := range []string{"r1", "r2"} {
		if err := a.Append("log", []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Append("log", []byte("other")); err != nil {
		t.Fatal(err)
	}
	recs, err := a.Records("log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "r1" || string(recs[1]) != "r2" {
		t.Fatalf("a.Records = %q; want [r1 r2]", recs)
	}

	if err := a.Put("cells/x", nil); err != nil {
		t.Fatal(err)
	}
	// List comes back in namespace coordinates, without g1's keys.
	keys, err := a.List("")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cells/x", "log"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("a.List = %v; want %v", keys, want)
	}
	keys, err = a.List("cells/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"cells/x"}) {
		t.Fatalf("a.List(cells/) = %v; want [cells/x]", keys)
	}
}

func TestPrefixedEmptyNamespaceIsTransparent(t *testing.T) {
	shared := NewMem()
	p := NewPrefixed(shared, "")
	if err := p.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := shared.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("shared.Get(k) = %q,%v; want v", got, ok)
	}
}

// TestPrefixedAsyncForwarding checks the asynchronous API reaches the inner
// engine's pipeline with qualified keys: over the WAL, completions resolve
// at the covering fsync and both namespaces' writes share the commit groups.
func TestPrefixedAsyncForwarding(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	a := NewPrefixed(w, "g0")
	b := NewPrefixed(w, "g1")
	ca := a.PutAsync("cell", []byte("A"))
	cb := b.AppendAsync("log", []byte("B"))
	if err := ca.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := cb.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := w.Get("g0/cell"); !ok || string(got) != "A" {
		t.Fatalf("wal.Get(g0/cell) = %q,%v; want A", got, ok)
	}
	recs, err := w.Records("g1/log")
	if err != nil || len(recs) != 1 || string(recs[0]) != "B" {
		t.Fatalf("wal.Records(g1/log) = %q,%v; want [B]", recs, err)
	}

	// The synchronous-engine path resolves eagerly.
	m := NewPrefixed(NewMem(), "ns")
	if err := m.DeleteAsync("gone").Wait(); err != nil {
		t.Fatal(err)
	}
	if err, done := m.PutAsync("k", nil).Poll(); !done || err != nil {
		t.Fatalf("mem-backed PutAsync not eagerly resolved: %v,%v", err, done)
	}
}

// TestPrefixedRangeStaysInNamespace: a range delete in one namespace of a
// shared WAL, even one over the whole namespace, leaves every other
// namespace intact, g10/ (which g1/ is a string prefix of) and g2/ (which
// sorts right after it) included, before and after a reopen.
func TestPrefixedRangeStaysInNamespace(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"g1", "g10", "g2"} {
		for _, k := range []string{"cons/a/0", "cons/a/1", "cons/lease"} {
			if err := NewPrefixed(w, g).Put(k, []byte(g+k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	others := []string{"g10/cons/a/0", "g10/cons/a/1", "g10/cons/lease", "g2/cons/a/0", "g2/cons/a/1", "g2/cons/lease"}
	check := func(when string, want []string) {
		t.Helper()
		if keys, err := w.List(""); err != nil || !reflect.DeepEqual(keys, want) {
			t.Fatalf("%s: keys %q (%v), want %q", when, keys, err, want)
		}
	}
	g1 := NewPrefixed(w, "g1")
	if err := g1.DeleteRangeAsync("cons/a/", "cons/a0").Wait(); err != nil {
		t.Fatal(err)
	}
	check("after a range over g1/cons/a/", append([]string{"g1/cons/lease"}, others...))
	if err := g1.DeleteRangeAsync("", "\xff").Wait(); err != nil {
		t.Fatal(err)
	}
	check("after a range over all of g1/", others)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = OpenWAL(dir, walOpts()); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	check("after reopen", others)
}
