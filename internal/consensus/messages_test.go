package consensus

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/wire"
)

func TestMessageRoundTrip(t *testing.T) {
	cases := []message{
		{kind: mPrepare, k: 3, b: 10},
		{kind: mPromise, k: 3, b: 10, hasAcc: true, accB: 7, val: []byte("v")},
		{kind: mPromise, k: 0, b: 1},
		{kind: mAccept, k: 9, b: 22, val: []byte("value")},
		{kind: mAccepted, k: 9, b: 22},
		{kind: mNack, k: 2, b: 5, promised: 8},
		{kind: mDecide, k: 1, val: []byte("decided")},
		{kind: mDecideReq, k: 77},
		{kind: mForgotten, k: 4, promised: 100},
		{kind: mChosen, k: 9, b: 22},
	}
	for _, in := range cases {
		got, err := decodeMessage(in.encode())
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if got.kind != in.kind || got.k != in.k || got.b != in.b ||
			got.hasAcc != in.hasAcc || got.accB != in.accB ||
			got.promised != in.promised || !bytes.Equal(got.val, in.val) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(kind uint8, k, b, accB, promised uint64, hasAcc bool, val []byte) bool {
		in := message{kind: kind, k: k, b: b, hasAcc: hasAcc, accB: accB, val: val, promised: promised}
		got, err := decodeMessage(in.encode())
		if err != nil {
			return false
		}
		return got.kind == in.kind && got.k == in.k && got.b == in.b &&
			got.hasAcc == in.hasAcc && got.accB == in.accB &&
			got.promised == in.promised && bytes.Equal(got.val, in.val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeMessageRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{nil, {1}, {1, 0xff}, {1, 2, 3}} {
		if _, err := decodeMessage(bad); err == nil && len(bad) > 3 {
			t.Fatalf("garbage %v decoded", bad)
		}
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	for _, k := range []uint64{0, 1, 255, 1 << 40} {
		for _, cell := range []byte{cellProposal, cellAcceptor} {
			key := cellKey(cell, k)
			kind, got, ok := parseKey(key)
			if !ok || got != k || kind != cell {
				t.Fatalf("parse %q: kind=%c k=%d ok=%v", key, kind, got, ok)
			}
		}
	}
	for _, bad := range []string{"cons/", "cons/x", "other/p/01", "cons/p/zz"} {
		if _, _, ok := parseKey(bad); ok {
			t.Fatalf("parsed invalid key %q", bad)
		}
	}
}

func TestKeysSortNumerically(t *testing.T) {
	key := func(k uint64) string { return cellKey(cellProposal, k) }
	if !(key(9) < key(10) && key(10) < key(255) && key(255) < key(1<<30)) {
		t.Fatal("fixed-width keys do not sort numerically")
	}
}

func TestBallotUniquenessAcrossProcesses(t *testing.T) {
	// Under both policies, no two processes may ever use the same ballot.
	for _, policy := range []Policy{PolicyLeader, PolicyRotating} {
		seen := make(map[uint64]int)
		for pid := 0; pid < 5; pid++ {
			e := &machine{cfg: Config{PID: ids.ProcessID(pid), N: 5, Policy: policy}}
			for a := uint64(0); a < 40; a++ {
				if policy == PolicyRotating && !e.myTurn(a, 0) {
					continue // rotating: attempt a belongs to a%n only
				}
				b := e.ballotFor(a)
				if owner, dup := seen[b]; dup && owner != pid {
					t.Fatalf("policy %v: ballot %d used by p%d and p%d", policy, b, owner, pid)
				}
				seen[b] = pid
			}
		}
	}
}

// encode allocates a standalone encoding.
func (m message) encode() []byte {
	w := wire.NewWriter(24 + len(m.val))
	m.encodeTo(w)
	return w.Bytes()
}
