package abcast_test

import (
	"context"
	"testing"
	"time"

	"repro/abcast"
	"repro/internal/ids"
	"repro/internal/obs"
)

// TestShardedFDOnObsPlane: a sharded process's one failure detector
// reports on the process's Obs plane. p0 watches p2 get isolated: its
// flight recorder logs the suspicion and its scrape counts a suspect.
func TestShardedFDOnObsPlane(t *testing.T) {
	const n, groups = 3, 2
	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 11})
	defer net.Close()
	snet := abcast.NewShardedNetwork(net, groups)
	plane := obs.New(obs.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var procs []*abcast.Sharded
	for p := range n {
		cfg := abcast.ShardedConfig{PID: abcast.ProcessID(p), N: n}
		if p == 0 {
			cfg.Obs = plane
		}
		s, err := abcast.NewSharded(cfg, abcast.NewMemStorage(), snet)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, s)
	}
	for _, s := range procs {
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
		defer s.Crash()
	}

	net.Partition([]ids.ProcessID{2}, []ids.ProcessID{0, 1})
	defer net.Heal()
	suspected := func() (flight bool, scrape int64) {
		for _, e := range plane.Flight().Dump() {
			if e.Kind == obs.EvSuspect && e.A == 2 {
				flight = true
			}
		}
		plane.Reg().Each(func(name string, v int64, _ bool) {
			if name == "abcast.fd.suspected" {
				scrape = v
			}
		})
		return flight, scrape
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		flight, scrape := suspected()
		if flight && scrape > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("isolated p2: suspect event on the plane %v, abcast.fd.suspected %d", flight, scrape)
		}
	}
}
