//go:build linux

package loop

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Flags of timerfd_create(2).
const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

// itimerspec is struct itimerspec: a one-shot timer leaves interval zero.
type itimerspec struct {
	interval, value syscall.Timespec
}

// timerfd is a loop's one wall timer on Linux: a timerfd in the runtime's
// netpoller, read by one goroutine that calls wake at each expiry.
//
// A time.AfterFunc would do the same job late: a Go process with nothing
// else to do sleeps in epoll_wait, whose timeout the runtime rounds up to
// whole milliseconds, so a 200 µs timer fires about a millisecond after it
// was due. A timerfd's expiry is an event on that same epoll set and wakes
// it within tens of microseconds.
type timerfd struct {
	f *os.File

	mu sync.Mutex // orders settime against Stop's close
	fd int        // -1 once stopped
}

// newTimer returns a timerfd, or the portable timer if the kernel will
// not make one or the runtime cannot poll it.
func newTimer(wake func()) Timer {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return afterFunc(wake)
	}
	f := os.NewFile(fd, "timerfd")
	if f.SetReadDeadline(time.Time{}) != nil { // os.ErrNoDeadline: not in the netpoller
		f.Close()
		return afterFunc(wake)
	}
	t := &timerfd{f: f, fd: int(fd)}
	go t.run(wake)
	return t
}

// run calls wake at each expiry until Stop closes the file. A Reset that
// lands between an expiry and its read clears the expiry, and the read
// waits for the next one.
func (t *timerfd) run(wake func()) {
	var ticks [8]byte
	for {
		if _, err := t.f.Read(ticks[:]); err != nil {
			return
		}
		wake()
	}
}

// settime arms the timer to fire in d (0: disarms it) and reports whether
// it was armed. t.mu held, timer not stopped.
func (t *timerfd) settime(d time.Duration) bool {
	next := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	var prev itimerspec
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&next)), uintptr(unsafe.Pointer(&prev)), 0, 0)
	return prev.value != syscall.Timespec{}
}

// Reset arms the timer to fire once, in d; a d <= 0 fires at once (a zero
// time would disarm it). After Stop it does nothing.
func (t *timerfd) Reset(d time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fd < 0 {
		return false
	}
	return t.settime(max(d, 1))
}

// Stop disarms the timer for good: it closes the file, which ends run,
// and no later Reset reaches the descriptor's number, which the process
// may have reused by then.
func (t *timerfd) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fd < 0 {
		return false
	}
	armed := t.settime(0)
	t.fd = -1
	t.f.Close()
	return armed
}
