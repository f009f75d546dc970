package core

import (
	"fmt"
	"testing"

	"repro/internal/msg"
	"repro/internal/wire"
)

// benchBatch builds n unordered messages with the given payload size.
func benchBatch(n, payload int) []msg.Message {
	out := make([]msg.Message, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, m(1, 1, uint64(i+1)))
		out[i].Payload = make([]byte, payload)
	}
	return out
}

// BenchmarkGossipFrameEncode measures the two gossip encode paths: the
// full-payload frame (eager push, pull reply) versus the periodic ID
// digest. The digest is what makes steady-state anti-entropy O(IDs) instead
// of O(payloads) — its byte count per op IS the per-tick background cost.
func BenchmarkGossipFrameEncode(b *testing.B) {
	for _, n := range []int{16, 256} {
		batch := benchBatch(n, 256)
		b.Run(fmt.Sprintf("full/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := wire.GetWriter(64)
				w.U8(subGossip)
				w.U64(42)
				msg.EncodeBatch(w, batch)
				b.SetBytes(int64(w.Len()))
				wire.PutWriter(w)
			}
		})
		b.Run(fmt.Sprintf("digest/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := wire.GetWriter(64)
				w.U8(subDigest)
				w.U64(42)
				w.U64(uint64(len(batch)))
				for _, mm := range batch {
					msg.EncodeID(w, mm.ID)
				}
				b.SetBytes(int64(w.Len()))
				wire.PutWriter(w)
			}
		})
	}
}

// BenchmarkBatchDecode measures the matching receive path.
func BenchmarkBatchDecode(b *testing.B) {
	batch := benchBatch(64, 256)
	w := wire.NewWriter(64)
	msg.EncodeBatch(w, batch)
	buf := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := wire.NewReader(buf)
		if got := msg.DecodeBatch(r); len(got) != 64 {
			b.Fatal("bad decode")
		}
	}
}
