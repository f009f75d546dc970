package core

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/wire"
)

// checkpointTask implements Fig. 4's checkpoint task: every
// CheckpointEvery rounds it logs (k_p, Agreed_p) — folding the delivered
// suffix into an application-level checkpoint when a Checkpointer is
// configured — and discards Consensus state below k_p (line (c)).
func (p *Protocol) checkpointTask() {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-p.ckptCh:
			_ = p.CheckpointNow()
		}
	}
}

// CheckpointNow performs one checkpoint immediately (Fig. 4 lines (b)/(c)).
// It is exported so applications and experiments can force a checkpoint at
// a chosen moment; the periodic task calls it too.
func (p *Protocol) CheckpointNow() error {
	p.mu.Lock()
	if p.cfg.Checkpointer != nil {
		// The fold floor: everything delivered, unless a merge floor
		// retains the per-round structure of rounds the process-wide
		// merge frontier has not yet passed.
		floor := p.k
		if p.cfg.MergeFloor != nil {
			if f := p.cfg.MergeFloor(); f < floor {
				floor = f
			}
		}
		if cut := p.ds.cutBelow(floor); cut > 0 {
			// (b) Agreed_p ← (A-checkpoint(Agreed_p), VC(Agreed_p)): the
			// application folds the delivered prefix below the floor into
			// its state; the checkpoint vector clock replaces the explicit
			// messages.
			app := p.cfg.Checkpointer.Checkpoint(p.ds.base.App, p.ds.suffixMessagesPrefix(cut))
			p.ds.foldPrefix(app, cut, floor)
		}
	}
	w := wire.GetWriter(p.ds.sizeHint())
	defer wire.PutWriter(w)
	w.U64(p.k)
	p.ds.encode(w)
	k := p.k
	p.met.checkpoints.Inc()

	// Compact the incremental Unordered log under the same lock that
	// Broadcast appends under, so no record is lost.
	var compactErr error
	if p.cfg.BatchedBroadcast && p.cfg.IncrementalLog {
		uw := wire.GetWriter(msg.BatchSize(p.unordered.Slice()))
		p.unordered.Encode(uw)
		// Put borrows the value for the call, so the buffer goes back to
		// the pool as soon as it returns.
		if err := p.st.Put(keyUnord, uw.Bytes()); err != nil {
			compactErr = err
		} else if err := p.st.Delete(keyUnordLog); err != nil {
			compactErr = err
		}
		wire.PutWriter(uw)
	}
	p.mu.Unlock()

	if compactErr != nil {
		return fmt.Errorf("core: compact unordered log: %w", compactErr)
	}
	// log(k_p, Agreed_p)
	if err := p.st.Put(keyCkpt, w.Bytes()); err != nil {
		return fmt.Errorf("core: log checkpoint: %w", err)
	}
	// (c) Proposed_p[i], i < k_p can be discarded from the log — capped
	// by the cluster-wide durable floor when one is wired: a peer whose
	// own recoverable prefix ends below k still needs those instances to
	// re-learn its missing rounds through Consensus, and discarding them
	// would force it into a state transfer (the gcFloor path).
	discard := k
	if p.cfg.DiscardFloor != nil {
		if f := p.cfg.DiscardFloor(); f < discard {
			discard = f
		}
	}
	// The floor is persisted so a recovering incarnation knows how much
	// of its Consensus log actually survived (gcFloor must reflect what
	// was discarded, not the checkpoint counter).
	fw := wire.GetWriter(16)
	fw.U64(discard)
	err := p.st.Put(keyGCFloor, fw.Bytes())
	wire.PutWriter(fw)
	if err != nil {
		return fmt.Errorf("core: log gc floor: %w", err)
	}
	if err := p.cons.DiscardBelow(discard); err != nil {
		return fmt.Errorf("core: discard consensus log: %w", err)
	}
	p.fl.Event(obs.EvCheckpoint, p.cfg.Group, k, int64(discard), 0, "")
	p.mu.Lock()
	if discard > p.gcFloor {
		p.gcFloor = discard
	}
	p.mu.Unlock()
	if cb := p.cfg.OnCheckpoint; cb != nil {
		cb(k)
	}
	return nil
}
