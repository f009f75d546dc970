package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/ids"
)

// EventKind classifies a flight-recorder event.
type EventKind int

const (
	EvNodeStart      EventKind = iota // incarnation started (A=incarnation)
	EvLeaseAcquire                    // sequencer lease acquired (A=holder pid)
	EvLeaseLost                       // lease dropped/revoked (A=holder pid)
	EvStateSent                       // checkpoint state served to a peer (A=peer, Round=upto)
	EvStateAdopt                      // checkpoint state adopted from a peer (Round=new next round)
	EvCursorLag                       // merge cursor lagged behind the retention floor
	EvCheckpoint                      // checkpoint cut (Round=next undelivered)
	EvCompaction                      // WAL segment compaction pass (A=segments before, B=after)
	EvSuspect                         // failure detector began suspecting a peer (A=peer)
	EvTrust                           // failure detector trusts a peer again (A=peer)
	EvEpochChange                     // peer's epoch number increased (A=peer, B=epoch)
	EvSlowSync                        // durability op over threshold (A=duration ns)
	EvViolation                       // harness-detected safety/liveness violation
	EvReshardSeal                     // retiring group sealed (Round=final round, A=drain window)
	EvReshardJoin                     // new group spliced into the order (A=new gid, B=global offset)
	EvReshardDrain                    // retiring group drained (Round=final+1, A=orphan count, B=drain ns)
	EvReshardMigrate                  // retired namespace archived into successor (A=keys, B=bytes)
)

var evNames = map[EventKind]string{
	EvNodeStart: "node-start", EvLeaseAcquire: "lease-acquire", EvLeaseLost: "lease-lost",
	EvStateSent: "state-sent", EvStateAdopt: "state-adopt",
	EvCursorLag: "cursor-lag", EvCheckpoint: "checkpoint", EvCompaction: "compaction",
	EvSuspect: "suspect", EvTrust: "trust", EvEpochChange: "epoch-change",
	EvSlowSync:  "slow-sync",
	EvViolation: "VIOLATION", EvReshardSeal: "reshard-seal", EvReshardJoin: "reshard-join",
	EvReshardDrain: "reshard-drain", EvReshardMigrate: "reshard-migrate",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if n, ok := evNames[k]; ok {
		return n
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one structured flight-recorder entry. A and B are
// kind-specific small operands (peer pid, count, nanoseconds, ...); Note
// carries anything that doesn't fit.
type Event struct {
	Seq   uint64 // process-wide event sequence number (1-based)
	T     time.Time
	Kind  EventKind
	PID   ids.ProcessID
	Group ids.GroupID
	Round uint64
	A, B  int64
	Note  string
}

// String renders one line of a dump.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %v %v/%v", e.Seq, e.T.Format("15:04:05.000000"), e.Kind, e.PID, e.Group)
	if e.Round != 0 {
		fmt.Fprintf(&b, " r=%d", e.Round)
	}
	if e.A != 0 || e.B != 0 {
		fmt.Fprintf(&b, " a=%d b=%d", e.A, e.B)
	}
	if e.Note != "" {
		b.WriteString(" ")
		b.WriteString(e.Note)
	}
	return b.String()
}

// Recorder is a bounded ring of recent anomaly events: cheap enough to
// leave on (one short critical section per event), bounded (the ring
// overwrites its oldest entry once full), and dumpable on demand — the
// soak harness snapshots it on the first safety/liveness violation so a
// failing seed arrives with its causal timeline attached.
//
// All methods are safe on a nil *Recorder.
type Recorder struct {
	pid ids.ProcessID

	mu    sync.Mutex
	ring  []Event
	next  int    // ring write position
	total uint64 // events ever recorded (== next Seq)
}

func newRecorder(pid ids.ProcessID, cap_ int) *Recorder {
	return &Recorder{pid: pid, ring: make([]Event, 0, cap_)}
}

// Record appends an event (pid defaulting to the recorder's own).
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	e.T = time.Now()
	r.mu.Lock()
	r.total++
	e.Seq = r.total
	if e.PID == 0 {
		e.PID = r.pid
	}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.next] = e
		r.next = (r.next + 1) % cap(r.ring)
	}
	r.mu.Unlock()
}

// Event is shorthand for Record with the common fields.
func (r *Recorder) Event(k EventKind, g ids.GroupID, round uint64, a, b int64, note string) {
	r.Record(obsEvent(k, g, round, a, b, note))
}

func obsEvent(k EventKind, g ids.GroupID, round uint64, a, b int64, note string) Event {
	return Event{Kind: k, Group: g, Round: round, A: a, B: b, Note: note}
}

// Total returns how many events were ever recorded (>= len(Dump())).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Cap returns the ring's capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.ring)
}

// Len returns how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Dump returns the retained events oldest-first.
func (r *Recorder) Dump() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// String renders the whole retained timeline, one event per line.
func (r *Recorder) String() string {
	evs := r.Dump()
	if len(evs) == 0 {
		return "(flight recorder empty)"
	}
	var b strings.Builder
	total := r.Total()
	if total > uint64(len(evs)) {
		fmt.Fprintf(&b, "(%d earlier events overwritten)\n", total-uint64(len(evs)))
	}
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// DumpAll merges several processes' recorders into one Seq-stable,
// time-ordered timeline (the harness's cluster-wide view).
func DumpAll(planes []*Plane) []Event {
	var all []Event
	for _, p := range planes {
		all = append(all, p.Flight().Dump()...)
	}
	// Insertion sort by time is fine at flight-recorder scale.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].T.Before(all[j-1].T); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	return all
}

// FormatDump renders a merged timeline.
func FormatDump(evs []Event) string {
	if len(evs) == 0 {
		return "(flight recorder empty)"
	}
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
