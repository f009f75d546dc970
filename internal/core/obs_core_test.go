package core

import (
	"sync"
	"testing"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Registry counters are process-lifetime monotonic (the Prometheus
// contract), while Protocol.Stats reports per-incarnation values by
// subtracting the baseline captured at New. A recovering incarnation must
// therefore start its Stats at zero — recovery replay re-commits rounds,
// but it can never re-inflate HeartbeatRounds, which only the live
// sequencer increments.
func TestIncarnationStatsResetOverLifetimeCounters(t *testing.T) {
	plane := obs.New(obs.Options{})
	cfg := Config{PID: 0, N: 3, Incarnation: 1, Obs: plane}
	p1 := newProto(cfg, storage.NewMem(), &fakeNet{})
	p1.met.heartbeatRounds.Inc()
	p1.met.heartbeatRounds.Inc()
	if st := p1.Stats(); st.HeartbeatRounds != 2 {
		t.Fatalf("incarnation 1 stats: %+v", st)
	}

	cfg.Incarnation = 2
	p2 := newProto(cfg, storage.NewMem(), &fakeNet{})
	if st := p2.Stats(); st.HeartbeatRounds != 0 {
		t.Fatalf("recovered incarnation inherited counters: %+v", st)
	}

	// The exported series keeps the cumulative process-lifetime total.
	hb := plane.Reg().Counter(obs.GroupLabel("abcast.core.heartbeat_rounds", 0))
	if hb.Value() != 2 {
		t.Fatalf("lifetime heartbeat_rounds = %d, want 2", hb.Value())
	}
}

// Stats must be safe to read while deliveries and broadcasts run — it is
// built from atomic counter reads, not the protocol mutex. Run with -race.
func TestStatsRaceUnderConcurrentDelivery(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			_, _ = p.BroadcastAsync([]byte("x"))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := uint64(0); k < 200; k++ {
			w := wire.NewWriter(0)
			msg.EncodeBatch(w, []msg.Message{m(1, 1, k+1)})
			p.commit(k, w.Bytes())
		}
	}()
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				close(done)
				return
			default:
				_ = p.Stats()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	st := p.Stats()
	if st.Broadcasts != 300 || st.Delivered != 200 {
		t.Fatalf("final stats: %+v", st)
	}
}
