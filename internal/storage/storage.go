// Package storage provides the stable-storage abstraction of the
// crash-recovery model (§2.1): "The primitives log and retrieve allow an up
// process to access its stable storage. When it crashes, a process
// definitively loses the content of its volatile memory; the content of a
// stable storage is not affected by crashes."
//
// Two engines are provided: Mem, a crash-faithful in-memory store used
// by the simulation harness (the harness holds it outside the process
// incarnation, so it survives crashes exactly as stable storage must);
// and WAL, the one durable engine, a group-commit write-ahead log (one
// segmented append-only file, an in-memory index of where each live record
// is, torn-tail recovery) that coalesces all concurrent writes into one
// fsync. The WAL holds no copy of a durable value: reads, which the
// protocol makes only when it recovers, go to the disk.
//
// # Durability policy
//
// The paper's crash-recovery model (§2.1, §5.5) requires that logged state
// be durable before the process sends the message the log protects — NOT
// one fsync per log call, and not before every action either: a process
// sends a promise or an accepted reply only after the acceptor cell
// protecting it is durable; a proposer sends its own value at a classic
// ballot only after its proposal is durable, and at its lease ballot
// beside the proposal write — a lease ballot is used by one incarnation
// only (its grant is durable at a majority, which refuses every later
// request or prepare at it), so no second value can appear there even if
// the holder crashes before the write lands; everything else (prepare,
// decide, deliver) may run ahead of the local log, because it carries
// nothing a quorum does not already hold durably. The gap between "one
// fsync per call" and that rule is the group-commit engine's opportunity:
// a WAL record is durable once the fsync covering its commit group
// completes. A group closes when SyncEvery records are pending or the
// oldest has waited MaxSyncDelay, whichever is first — both set in
// WALOptions at OpenWAL and nowhere else. The group, not the record, is
// the unit of completion: every write queued into one group gets the
// group's one Completion, made with its first record and resolved once,
// after every earlier group's, so a write costs its memcpy into the group
// buffer and a slot in a reused queue, not a Completion of its own.
// Faulty's latency model follows suit: consecutive writes that share a
// completion and a latency share one delayed completion.
// Synchronous Put/Append still block until that fsync, so the Stable
// contract ("returned => durable") is that of one fsync per call —
// concurrent callers just share the fsync. The asynchronous API
// (AsyncStable: PutAsync / AppendAsync returning a Completion, plus a Sync
// barrier) lets the protocol hot path issue every persist of a pipelined
// round window up front and act on each as its completion fires,
// amortizing one fsync across the whole window.
//
// At every SyncEvery/MaxSyncDelay setting the guarantee after a crash is
// the same: the durable prefix contains exactly the operations whose
// completions resolved (or synchronous calls that returned), and a torn
// tail from a crash mid-group is discarded on recovery — safe because
// nothing ever acted on those records. The knobs only trade the latency
// of reaching the durability point against fsyncs per record.
//
// # Log lifecycle
//
// An append-only log accumulates dead records: overwritten cells, deleted
// keys, compacted protocol state (the checkpoint task of §5.2 discards
// whole consensus rounds). Segment compaction reclaims them so a
// long-lived store's disk usage tracks its LIVE state, not its history:
//
//   - Triggers: background compaction runs on the WAL's committer when
//     on-disk bytes exceed WALOptions.CompactFactor times the live index
//     bytes and the CompactMinBytes floor (the trigger is evaluated after
//     each commit group, so an idle engine compacts on its next write or
//     an explicit Compact call). Compact() forces one cycle
//     synchronously; DiskBytes, LiveBytes and CompactCount expose the
//     footprint.
//   - Mechanism: one incremental pass per cycle. The committer drains the
//     write queue and opens the pass at exactly that stream position,
//     then streams the oldest segment (the victim) and rescues the state
//     of every still-live key its records touch into the tail — a cell
//     as a put record, an append-log as ONE atomic log-snapshot record (a
//     torn or missing snapshot frame leaves the pre-compaction log
//     intact; a delete-then-re-append encoding could lose acknowledged
//     entries to a partial replay). Values are copied from the victim's
//     stream or read by location; nothing is snapshotted in memory. A
//     write enqueued during the pass lands after the rescue in the
//     stream; the first one to replace or delete a key's state keeps that
//     state for the pass, so the rescue writes the index as it stood at
//     the drain.
//   - Crash safety: the victim is unlinked only after the rescue's fsync,
//     and the index is repointed at the rescue's copies before that. A
//     crash before the unlink replays the old stream plus an arbitrary
//     (possibly torn) prefix of the rescue — idempotent over the state
//     it describes; the victim is always the oldest segment, so the
//     survivors stay a contiguous suffix and no delete record is ever
//     separated from the earlier record it masks. Replay therefore
//     recovers the exact index at every crash point (the compaction
//     crash tests cut the rescue at arbitrary byte offsets).
//   - Range deletes: DeleteRangeAsync writes one record, [from, to),
//     which at issue and at replay deletes every indexed cell and log in
//     the range, each as a single delete would (a running pass saves
//     their drained state the same way). A checkpoint discards each kind
//     of consensus cell below its floor with one. Compaction needs no
//     case for it: like a single delete, it masks only records older
//     than itself, and those sit in its own segment or an older one, so
//     dropping the victim drops the range record together with or after
//     every record it masks, and a cell it masks is dead, never rescued.
//
// The checkpoint floor bounds what compaction can reclaim: records stay
// live until the protocol's checkpoint deletes them, so a deployment
// without checkpointing keeps its whole consensus history live and
// compaction only reclaims overwritten cells. Bounded disk needs both
// tasks — §5.2's fold to bound the live state, compaction to bound the
// garbage (TestCompactionBoundsWALSize asserts the two together).
//
// The Accounted wrapper attributes every operation and byte to a layer
// (consensus, broadcast, node, ...) keyed by a key prefix. That accounting
// is how experiment E1 verifies the paper's central claim: the basic
// broadcast protocol performs zero log operations beyond those of the
// underlying Consensus (§4.3). Accounted and Faulty forward the
// asynchronous API to the engine they wrap, so the fault-injection and
// accounting harnesses compose with the WAL unchanged.
package storage

import "errors"

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("storage: closed")

// Stable is the stable-storage interface. Put models the paper's "log"
// primitive for a named cell (atomic overwrite); Get models "retrieve".
// Append/Records model an append-only log for incremental logging (§5.5).
//
// Implementations must be safe for concurrent use.
//
// Buffer ownership (the module's one rule, stated in full at
// wire.GetWriter): val and rec passed to Put and Append are borrowed for
// the call — the engine has copied what it keeps by the time the call
// returns, so the caller may encode into a pooled buffer and release it at
// once. What Get and Records return is immutable and owned by the
// collector: the engine never writes to it again or hands it out twice, and
// the caller may keep and alias it. Every engine and every wrapper keeps
// both halves.
type Stable interface {
	// Put atomically replaces the value of cell key.
	Put(key string, val []byte) error
	// Get returns the value of cell key, and whether the cell exists.
	Get(key string) ([]byte, bool, error)
	// Append appends one record to the log named key.
	Append(key string, rec []byte) error
	// Records returns all records of the log named key, oldest first.
	Records(key string) ([][]byte, error)
	// Delete removes a cell or log. Deleting a missing key is a no-op.
	Delete(key string) error
	// List returns all existing keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// Closer is implemented by engines that hold external resources.
type Closer interface {
	Close() error
}
