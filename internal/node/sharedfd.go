package node

import (
	"context"
	"fmt"

	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

// keyProcEpoch is the process-level incarnation counter of a sharded
// process — the epoch the shared failure detector advertises. It is
// distinct from each group node's own keyEpoch cell, so the two counters
// can live in the same namespace without colliding.
const keyProcEpoch = "proc/epoch"

// SharedFD is the process-level failure-detector service of a sharded
// process: one Detector covering the whole process incarnation, serving
// every ordering group: each group's consensus engine reads the one
// Detector. The paper's
// liveness oracle is per process (§3.5) — a process's groups crash and
// recover together — so G per-group detectors send G identical heartbeat
// streams per peer where one suffices. SharedFD runs that one stream over
// the mux's process lane (Mux.ProcNet).
//
// Lifecycle: start one per process incarnation (before the group nodes,
// so their consensus engines see a live oracle), stop it when the process
// crashes. The next incarnation starts a fresh one at a higher epoch.
type SharedFD struct {
	det    *fd.Detector
	rt     *router.Router
	cancel context.CancelFunc
}

// StartSharedFD attaches the process lane, boots the heartbeat task at the
// given epoch, and returns the running service. net is typically
// Mux.ProcNet(); epoch the process-level incarnation from NextProcEpoch.
func StartSharedFD(ctx context.Context, pid ids.ProcessID, n int, epoch uint32, opts fd.Options, net transport.Network) (*SharedFD, error) {
	ep, err := net.Attach(pid)
	if err != nil {
		return nil, fmt.Errorf("node %v: attach shared fd: %w", pid, err)
	}
	rt := router.New(ep)
	det := fd.New(pid, n, epoch, opts, rt.Bound(router.ChanFD))
	rt.Handle(router.ChanFD, det.OnMessage)
	sctx, cancel := context.WithCancel(ctx)
	rt.Start(sctx)
	det.Start(sctx)
	return &SharedFD{det: det, rt: rt, cancel: cancel}, nil
}

// Detector returns the shared process-level detector.
func (s *SharedFD) Detector() *fd.Detector { return s.det }

// Stop ends the service: the heartbeat task exits and the process-lane
// endpoint detaches (frames to it are dropped, like any crashed lane).
func (s *SharedFD) Stop() {
	s.cancel()
	s.rt.Stop()
	s.det.Stop()
}

// NextProcEpoch increments and logs the process-level incarnation counter
// in st — the shared failure detector's epoch. It is the process-scope
// twin of the per-node epoch log: one write per whole-process recovery,
// charged to the node/failure-detector layer like the per-node cell
// (§4.3's accounting).
func NextProcEpoch(st storage.Stable) (uint32, error) {
	return nextEpochCell(st, keyProcEpoch, "process")
}

// nextEpochCell increments and logs one epoch cell.
func nextEpochCell(st storage.Stable, key, what string) (uint32, error) {
	epoch := uint32(1)
	if raw, ok, err := st.Get(key); err != nil {
		return 0, fmt.Errorf("node: read %s epoch: %w", what, err)
	} else if ok {
		r := wire.NewReader(raw)
		epoch = uint32(r.U64()) + 1
		if r.Done() != nil {
			return 0, fmt.Errorf("node: corrupt %s epoch cell", what)
		}
	}
	w := wire.NewWriter(8)
	w.U64(uint64(epoch))
	if err := st.Put(key, w.Bytes()); err != nil {
		return 0, fmt.Errorf("node: log %s epoch: %w", what, err)
	}
	return epoch, nil
}
