package loop_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/loop"
	"repro/internal/sim"
	"repro/internal/sim/stack"
	"repro/internal/storage"
	"repro/internal/wire"
)

// layer records what a loop hands it. Live is false for the tokens in
// dead.
type layer struct {
	name  string
	log   *[]string
	fired []loop.Token
	dead  map[loop.Token]bool
}

func (ly *layer) Persisted(_ int64, err error) {
	*ly.log = append(*ly.log, ly.name+" persisted "+errString(err))
}

func (ly *layer) Fire(_ int64, tok loop.Token) { ly.fired = append(ly.fired, tok) }

func (ly *layer) Live(tok loop.Token) bool { return !ly.dead[tok] }

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// store is a store whose writes resolve when the test says: its
// completions are handed out in issue order.
type store struct {
	storage.Stable
	issued []*storage.Completion
}

func (st *store) issue() *storage.Completion {
	c := storage.NewCompletion()
	st.issued = append(st.issued, c)
	return c
}

func (st *store) PutAsync(string, []byte) *storage.Completion    { return st.issue() }
func (st *store) AppendAsync(string, []byte) *storage.Completion { return st.issue() }
func (st *store) DeleteAsync(string) *storage.Completion         { return st.issue() }
func (st *store) DeleteRangeAsync(_, _ string) *storage.Completion {
	return st.issue()
}
func (st *store) Sync() error { return nil }

// kernelLoop returns a started loop in a one-process kernel's Env, over st.
func kernelLoop(t *testing.T, st storage.Stable) (*sim.Kernel, *loop.Loop) {
	t.Helper()
	k := sim.New(1, 1)
	k.Start(0)
	l := loop.NewIn(st, stack.Env{K: k, PID: 0})
	l.Start(context.Background())
	t.Cleanup(l.Stop)
	return k, l
}

// TestTimersFireInDeadlineOrder: timers armed out of order fire in the
// order of their deadlines, each at its deadline.
func TestTimersFireInDeadlineOrder(t *testing.T) {
	k, l := kernelLoop(t, nil)
	ly := &layer{log: new([]string)}
	var at []int64
	l.Bind(func() {
		if len(ly.fired) > len(at) {
			at = append(at, k.Now)
		}
	}, nil)
	l.Enter()
	for _, d := range []int64{30, 10, 20} {
		l.Arm(ly, d*sim.Ms, loop.Token{K: uint64(d)})
	}
	l.Exit()
	k.Settle(100 * sim.Ms)
	want := []loop.Token{{K: 10}, {K: 20}, {K: 30}}
	if !slices.Equal(ly.fired, want) {
		t.Fatalf("fired %v, want %v", ly.fired, want)
	}
	if !slices.Equal(at, []int64{10 * sim.Ms, 20 * sim.Ms, 30 * sim.Ms}) {
		t.Fatalf("fired at %v", at)
	}
}

// TestSupersededTimerCostsNoFire: a token whose Live is false by its
// deadline is dropped without a Fire; the live one still fires.
func TestSupersededTimerCostsNoFire(t *testing.T) {
	k, l := kernelLoop(t, nil)
	old, cur := loop.Token{K: 1, Gen: 1}, loop.Token{K: 1, Gen: 2}
	ly := &layer{log: new([]string), dead: map[loop.Token]bool{old: true}}
	l.Enter()
	l.Arm(ly, 5*sim.Ms, old)
	l.Arm(ly, 8*sim.Ms, cur)
	l.Exit()
	k.Settle(100 * sim.Ms)
	if !slices.Equal(ly.fired, []loop.Token{cur}) {
		t.Fatalf("fired %v, want only %v", ly.fired, cur)
	}
}

// TestCompletionsReachLayersInIssueOrder: writes of two layers resolve in
// the reverse of their issue order; each layer hears of them in issue
// order, and none before every write issued ahead of it resolved.
func TestCompletionsReachLayersInIssueOrder(t *testing.T) {
	st := &store{Stable: storage.NewMem()}
	_, l := kernelLoop(t, st)
	var log []string
	a, b := &layer{name: "a", log: &log}, &layer{name: "b", log: &log}
	l.Enter()
	as := l.Store()
	l.Issue(a, as.PutAsync("a1", nil))
	l.Issue(b, as.AppendAsync("b1", nil))
	l.Issue(a, as.DeleteAsync("a2"))
	l.Exit()

	fail := errors.New("failed")
	st.issued[2].Resolve(nil)
	st.issued[1].Resolve(fail)
	if len(log) != 0 {
		t.Fatalf("reported %v before the first write resolved", log)
	}
	st.issued[0].Resolve(nil)
	want := []string{"a persisted ok", "b persisted failed", "a persisted ok"}
	if !slices.Equal(log, want) {
		t.Fatalf("reported %v, want %v", log, want)
	}
}

// net records the frames a loop sends, and whether the loop's lock was
// free when each left.
type net struct {
	t    *testing.T
	l    *loop.Loop
	sent []string
}

func (n *net) Send(to ids.ProcessID, payload []byte) { n.leave(to.String() + ":" + string(payload)) }
func (n *net) Multisend(payload []byte)              { n.leave("all:" + string(payload)) }

func (n *net) leave(f string) {
	free := make(chan struct{})
	go func() {
		n.l.Lock()
		n.l.Unlock()
		close(free)
	}()
	select {
	case <-free:
	case <-time.After(time.Second):
		n.t.Errorf("frame %q left under the loop's lock", f)
	}
	n.sent = append(n.sent, f)
}

// TestFramesLeaveAfterExit: a frame a step queues leaves once Exit has run
// the drain and released the lock, in queue order.
func TestFramesLeaveAfterExit(t *testing.T) {
	_, l := kernelLoop(t, nil)
	n := &net{t: t, l: l}
	var atDrain int
	l.Bind(func() { atDrain = len(n.sent) }, nil)
	l.Enter()
	for i, to := range []ids.ProcessID{1, ids.Nobody} {
		w := wire.GetWriter(8)
		w.U8('a' + byte(i))
		l.Send(n, to, w)
	}
	if len(n.sent) != 0 {
		t.Fatalf("sent %v before Exit", n.sent)
	}
	l.Exit()
	if atDrain != 0 {
		t.Fatalf("%d frames left before the drain ran", atDrain)
	}
	if want := []string{"p1:a", "all:b"}; !slices.Equal(n.sent, want) {
		t.Fatalf("sent %v, want %v", n.sent, want)
	}
}

// TestEnterRefusesAfterStop: once stopped, a loop takes no input, and a
// write resolving or a timer falling due reaches no layer.
func TestEnterRefusesAfterStop(t *testing.T) {
	st := &store{Stable: storage.NewMem()}
	k, l := kernelLoop(t, st)
	var log []string
	ly := &layer{name: "a", log: &log}
	l.Enter()
	l.Issue(ly, l.Store().PutAsync("a", nil))
	l.Arm(ly, 5*sim.Ms, loop.Token{K: 1})
	l.Exit()
	l.Stop()
	select {
	case <-l.Done():
	default:
		t.Fatal("Done is open after Stop")
	}
	if l.Enter() {
		l.Exit()
		t.Fatal("Enter took an input after Stop")
	}
	st.issued[0].Resolve(nil)
	k.Settle(100 * sim.Ms)
	if len(log) != 0 || len(ly.fired) != 0 {
		t.Fatalf("after Stop: reported %v, fired %v", log, ly.fired)
	}
}
