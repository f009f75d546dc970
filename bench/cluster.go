package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/abcast"
	"repro/internal/storage"
)

// nProcs is the pinned group size: every workload runs three processes
// inside this OS process.
const nProcs = 3

// protocolOptions is the pinned protocol configuration: the documented
// high-throughput setup plus bounded state. Everything not named here
// stays at its library default, so a change of a default shows up in the
// numbers without an edit here.
func protocolOptions() abcast.ProtocolOptions {
	return abcast.ProtocolOptions{
		PipelineDepth:    4,
		BatchedBroadcast: true,
		IncrementalLog:   true,
		MaxBatchBytes:    32 << 10,
		MaxBatchDelay:    200 * time.Microsecond,
		CheckpointEvery:  256,
		Checkpointer:     foldCheckpointer{},
	}
}

// foldCheckpointer folds the delivered stream into 16 bytes (message count,
// FNV-1a of the operation ids), so checkpoints cost the same however long
// the run is. The count doubles as a check: it must equal Snapshot.Pos.
type foldCheckpointer struct{}

func (foldCheckpointer) Checkpoint(prev []byte, delivered []abcast.Message) []byte {
	var count, hash uint64
	if len(prev) == 16 {
		count = binary.LittleEndian.Uint64(prev)
		hash = binary.LittleEndian.Uint64(prev[8:])
	}
	h := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], hash)
	h.Write(seed[:])
	for _, m := range delivered {
		if len(m.Payload) >= 8 {
			h.Write(m.Payload[:8])
		}
	}
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out, count+uint64(len(delivered)))
	binary.LittleEndian.PutUint64(out[8:], h.Sum64())
	return out
}

func (foldCheckpointer) Restore([]byte) {}

// payloads makes operation payloads from the run seed: bytes [0,8) carry
// the operation id, the rest is a window into a seeded random pool chosen
// by the id, so any delivery can be checked against what was sent.
type payloads struct {
	size int
	pool []byte
}

const poolSlack = 4096

func newPayloads(seed uint64, size int) *payloads {
	p := &payloads{size: size, pool: make([]byte, size+poolSlack)}
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	rand.NewChaCha8(key).Read(p.pool)
	return p
}

func (p *payloads) body(id uint64) []byte {
	off := int(id * 2654435761 % poolSlack)
	return p.pool[off+8 : off+p.size]
}

// fill writes operation id's payload into buf (len(buf) == p.size).
func (p *payloads) fill(buf []byte, id uint64) {
	binary.LittleEndian.PutUint64(buf, id)
	copy(buf[8:], p.body(id))
}

// verify reports whether a delivered payload is what fill produced. The
// body is compared for one operation in 64; length and id always.
func (p *payloads) verify(got []byte) (id uint64, ok bool) {
	if len(got) != p.size {
		return 0, false
	}
	id = binary.LittleEndian.Uint64(got)
	if id%64 == 0 && !bytes.Equal(got[8:], p.body(id)) {
		return id, false
	}
	return id, true
}

// member is one process of the cluster, sharded or not.
type member interface {
	Start(ctx context.Context) error
	Crash()
	broadcast(ctx context.Context, payload []byte) error
	stats() abcast.Stats
}

type plainMember struct{ *abcast.Process }

func (m plainMember) broadcast(ctx context.Context, payload []byte) error {
	_, err := m.Broadcast(ctx, payload)
	return err
}
func (m plainMember) stats() abcast.Stats { return m.Stats() }

type shardedMember struct{ *abcast.Sharded }

// broadcast routes on the payload's first 8 bytes: the per-operation key.
func (m shardedMember) broadcast(ctx context.Context, payload []byte) error {
	_, _, err := m.Broadcast(ctx, payload[:8], payload)
	return err
}
func (m shardedMember) stats() abcast.Stats { return m.Stats().Total }

// clusterSpec is what a workload pins about its cluster.
type clusterSpec struct {
	groups        int     // 0: abcast.Process; G > 0: abcast.Sharded with G groups
	compactFactor float64 // WALOptions.CompactFactor; 0 = no background compaction
}

// walOptions is how every WAL of the benchmark is opened: group-commit
// defaults, and no fsync. The benchmark may write only inside its checkout,
// which sits on the sandbox's disk, and that disk is not the hardware under
// test: with fsync on, every number is its flush time (3k msgs/s, p50 7 ms,
// and noisy). Without it the log's write path is all still there — framing,
// group commit, segment roll, compaction — and reads the same as on tmpfs,
// where fsync is free. What a disk adds is modelled by a fixed delay on
// every durability point (fsyncDelay).
func walOptions(compactFactor float64) abcast.WALOptions {
	return abcast.WALOptions{NoSync: true, CompactFactor: compactFactor}
}

// cluster is three processes over TCP loopback and one WAL each.
type cluster struct {
	dir     string
	members []member
	wals    []*storage.WAL
	mux     *abcast.ShardedNetwork // nil unless sharded
	tr      *tracker
	pay     *payloads
}

// freeAddrs reserves n loopback ports by binding and releasing them; the
// TCP transport needs its addresses up front and rebinds them on recovery.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// newCluster builds the cluster in a fresh directory under root. tracer
// may be nil.
func newCluster(root string, spec clusterSpec, tr *tracker, pay *payloads, tc *tracer) (*cluster, error) {
	dir, err := os.MkdirTemp(root, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, tr: tr, pay: pay}
	addrs, err := freeAddrs(nProcs)
	if err != nil {
		c.close()
		return nil, err
	}
	var network abcast.Network = abcast.NewTCPNetwork(addrs)
	if tc != nil {
		network = tc.wrapNetwork(network)
	}
	if spec.groups > 0 {
		c.mux = abcast.NewShardedNetwork(network, spec.groups)
	}
	for pid := range nProcs {
		wal, err := abcast.NewWALStorage(filepath.Join(dir, fmt.Sprintf("p%d", pid)), walOptions(spec.compactFactor))
		if err != nil {
			c.close()
			return nil, err
		}
		c.wals = append(c.wals, wal)
		disk := storage.NewFaulty(wal)
		disk.SetLatency(fsyncDelay)
		var st abcast.Storage = disk
		if tc != nil {
			st = tc.wrapStorage(pid, st)
		}
		m, err := c.newMember(pid, spec, st, network)
		if err != nil {
			c.close()
			return nil, err
		}
		c.members = append(c.members, m)
	}
	return c, nil
}

func (c *cluster) newMember(pid int, spec clusterSpec, st abcast.Storage, network abcast.Network) (member, error) {
	deliver := func(d abcast.Delivery) {
		at := c.tr.now()
		id, ok := c.pay.verify(d.Msg.Payload)
		if !ok {
			c.tr.violate("integrity: p%d delivered a payload that was never sent (g%d/%d, %d bytes)",
				pid, d.Group, d.Pos, len(d.Msg.Payload))
			return
		}
		c.tr.delivered(pid, int(d.Group), d.Pos, id, at)
	}
	restore := func(g abcast.GroupID, s abcast.Snapshot) {
		at := c.tr.now()
		if len(s.App) == 16 && binary.LittleEndian.Uint64(s.App) != s.Pos {
			c.tr.violate("checkpoint: p%d restored g%d state folding %d messages at position %d",
				pid, g, binary.LittleEndian.Uint64(s.App), s.Pos)
		}
		c.tr.restored(pid, int(g), s.Pos, at)
	}
	if spec.groups > 0 {
		s, err := abcast.NewSharded(abcast.ShardedConfig{
			PID: abcast.ProcessID(pid), N: nProcs,
			Protocol:  protocolOptions(),
			OnDeliver: deliver,
			OnRestore: restore,
		}, st, c.mux)
		if err != nil {
			return nil, err
		}
		return shardedMember{s}, nil
	}
	p, err := abcast.NewProcess(abcast.Config{
		PID: abcast.ProcessID(pid), N: nProcs,
		Protocol:  protocolOptions(),
		OnDeliver: deliver,
		OnRestore: func(s abcast.Snapshot) { restore(0, s) },
	}, st, network)
	if err != nil {
		return nil, err
	}
	return plainMember{p}, nil
}

func (c *cluster) start(ctx context.Context) error {
	for pid, m := range c.members {
		if err := m.Start(ctx); err != nil {
			return fmt.Errorf("start p%d: %w", pid, err)
		}
	}
	return nil
}

// close crashes every process, closes the logs and removes the directory.
func (c *cluster) close() {
	for _, m := range c.members {
		m.Crash()
	}
	for _, w := range c.wals {
		w.Close()
	}
	os.RemoveAll(c.dir)
}

// walStats sums the engines' lifetime counters.
func (c *cluster) walStats() (groups, records, diskBytes int64) {
	for _, w := range c.wals {
		groups += w.GroupCount()
		records += w.RecordCount()
		diskBytes += w.DiskBytes()
	}
	return
}
