// Package transport implements the paper's transport building block (§3.1):
// unreliable send/multisend/receive over fair-lossy channels. "Both send and
// multisend are unreliable: the channel can lose messages but it is assumed
// to be fair, i.e., if a message is sent infinitely often by a process p
// then it is received infinitely often by its receiver."
//
// Two implementations are provided: Mem, an in-memory network with seeded
// loss, duplication, reordering delay and partitions (the simulation
// substrate for every experiment), and TCP, a socket transport for real
// deployments. Messages that arrive while the destination process is down
// are dropped, exactly as §2.1 prescribes.
package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ids"
)

// ErrClosed is returned by Recv after the endpoint is closed (the process
// crashed or shut down).
var ErrClosed = errors.New("transport: endpoint closed")

// ErrDetached is returned by Attach when the process already has a live
// endpoint; a process has at most one incarnation at a time.
var ErrDetached = errors.New("transport: process already attached")

// Packet is one received datagram. Data is immutable and owned by whoever
// received it (see Endpoint).
type Packet struct {
	From ids.ProcessID
	Data []byte
}

// Endpoint is a process's handle on the network for one incarnation.
// Send and Multisend never fail: the channel is allowed to lose anything.
// Nor do they wait for a peer to come up: TCP dials a peer it has no
// connection to from a background goroutine, drops frames to a peer whose
// last dial failed until a backoff has passed or some process has
// connected to this one, and so never dials on the sender's goroutine. The
// one wait left is TCP's write to a connected peer whose socket buffer is
// full, bounded by a 1 s write deadline (see TCP). Recv blocks until a packet
// arrives, the context is cancelled, or the endpoint is closed.
//
// There is no loopback. The paper's multisend macro is Multisend's frames
// to every other process plus, at the one layer that needs its own
// messages (consensus), an input of the sending step, with no copy.
//
// Buffer ownership (the module's one rule, stated in full at
// wire.GetWriter): data passed to Send or Multisend is borrowed for the
// call — the endpoint has copied it or written it out by the time the call
// returns, and the caller may reuse the buffer at once. Packet.Data
// returned by Recv is immutable and owned by the collector: no endpoint
// pools it or writes to it again, so the receiver may keep it, slice it and
// alias it for as long as it likes, and must not modify it (two packets may
// share memory). Every implementation and every decorator keeps both
// halves.
type Endpoint interface {
	Local() ids.ProcessID
	// Send transmits data to one other process (unreliably).
	Send(to ids.ProcessID, data []byte)
	// Multisend transmits data to every process but the sender.
	Multisend(data []byte)
	// Recv returns the next packet from the input buffer.
	Recv(ctx context.Context) (Packet, error)
	// Close detaches the process from the network; packets addressed to
	// it are dropped until a new incarnation attaches.
	Close() error
}

// ToSelf reports whether a Send from `from` is addressed to the sender:
// it delivers nothing, and in a test binary it panics, so a layer that
// still addresses itself fails its suite.
func ToSelf(from, to ids.ProcessID) bool {
	if from != to {
		return false
	}
	if testing.Testing() {
		panic(fmt.Sprintf("transport: p%d sent itself a frame", from))
	}
	return true
}

// closed reports whether done is closed: closed endpoints transmit nothing.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Network creates endpoints.
type Network interface {
	// Attach creates the endpoint for pid's next incarnation.
	Attach(pid ids.ProcessID) (Endpoint, error)
	// N returns the group size.
	N() int
}
