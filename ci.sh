#!/usr/bin/env bash
# Everything CI runs, and nothing else: .github/workflows/ci.yml has one
# `bash ci.sh <step>` per entry of `steps` below; `bash ci.sh` runs them all
# in order, so a green local run is a green CI run.
set -euo pipefail
cd "$(dirname "$0")"

steps=(vet build test race bench metrics retired)

# vet, plus gofmt over every Go file of the checkout that git does not
# ignore: the root module and bench/ (a module of its own, see step_bench).
step_vet() {
	go vet ./...
	local unformatted
	unformatted=$(git ls-files -z -co --exclude-standard '*.go' | xargs -0 gofmt -l)
	test -z "$unformatted" || { echo "gofmt -l is not clean:"; echo "$unformatted"; return 1; }
}

step_build() { go build ./...; }

step_test() { go test ./...; }

# -p 1: on two vCPUs the harness and abcast packages run in parallel starve
# each other into timeouts under the race detector. Test binaries poison
# every pooled buffer on release (wire.Poison), so in the soaks a
# use-after-release is a CRC or decode failure.
step_race() {
	go test -race -p 1 ./internal/core/... ./internal/consensus/... ./internal/fd/... \
		./internal/transport/... ./internal/storage/... ./internal/group/... \
		./internal/node/... ./internal/obs/... ./internal/harness/... ./abcast/... \
		./internal/wire/... ./internal/msg/... ./internal/router/... \
		./internal/rsm/... ./internal/check/...
}

# bench/ is a module of its own, so the steps above never compile it.
step_bench() { (cd bench && go vet ./... && go test ./...); }

# The demo's -metrics endpoint must scrape as Prometheus text.
step_metrics() {
	local scrape="" sample='^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? -?[0-9]+$' bad fam
	go run ./cmd/abcast-demo -n 3 -msgs 30 -churn 1 -duration 4s -metrics 127.0.0.1:18099 &
	local demo=$!
	for _ in $(seq 1 100); do
		if scrape=$(curl -sf http://127.0.0.1:18099/metrics) && grep -q abcast_core_delivered <<<"$scrape"; then
			break
		fi
		scrape=""
		sleep 0.2
	done
	wait "$demo"
	test -n "$scrape" || { echo "metrics endpoint never became scrapeable"; return 1; }
	# Every sample line must be Prometheus-parseable: name{labels} value.
	bad=$(grep -v '^#' <<<"$scrape" | grep -vE "$sample" || true)
	test -z "$bad" || { echo "unparseable exposition lines:"; head <<<"$bad"; return 1; }
	for fam in abcast_core_broadcasts abcast_core_delivered abcast_consensus_quorum_ns abcast_consensus_lease_fast_rounds \
		abcast_trace_e2e_ns abcast_trace_deliver_ns abcast_fd_suspected; do
		grep -q "^# TYPE $fam " <<<"$scrape" || { echo "missing family $fam"; return 1; }
	done
}

# Names this repository retired must not creep back into code or docs: the
# experiments past E13 with their JSON files, the autotuner, two design
# documents that never existed, the full-payload periodic gossip's selector
# and cap, the file-per-key engine, the WAL's runtime policy setter, the
# lease switch (the lease is how PolicyLeader runs), ring dissemination
# (proposals carrying full payloads are the only value path), tentative
# delivery (OnDeliver is the only delivery stream), consensus's driver
# goroutines and wire tap, the core's task goroutines, decision waiters
# and held store (the step machines and their simulators replaced them),
# the engine's lease-revocation hook and the sharded harness's own
# copies of the front end's wiring and merge checks (the sharded soaks run
# abcast.Sharded and isolate processes instead), and the adapters' own
# write queues, settle upcall and upcall goroutine (one loop per
# incarnation runs them, internal/loop), and the transport's loopback (no
# process sends itself a frame). The machines' adapters start no
# goroutine and arm no wall timer of their own either: only the loop does,
# through its Env, and the simulator none at all. The simulator boots the
# production layers (node.Assemble): the exported step surfaces
# (step.go under internal/core and internal/consensus) and its own
# translation of their effects are gone.
# Consensus logs no decision (a recovered engine learns it again), so
# neither the decision cell nor its latency histogram comes back, and it
# discards its cells by key range, one record per kind of cell, never with
# a delete per cell. A WAL write queues a value op that resolves
# through its commit group's completion, never an op of its own on the heap.
# A checkpoint folds a view of the delivered sequence, never a copy of it.
# The paper's illustrations stay out of the product: the quorum replica and
# its app channel, the public reduction, the crash-stop baseline with E7,
# its null store and the ordered queue it alone still used.
# The core meets the sharding layer at one seam, core.Shard: the seven
# Config hooks it replaced stay gone, and the floor report's fields
# (floor, topology epoch, topology) are encoded only by the sharding layer.
step_retired() {
	local pat='DESIGN\.md|EXPERIMENTS\.md|BENCH_e[0-9]+|internal/tune|\bE(1[4-9]|2[0-2])\b'
	pat+='|\bDigestGossip\b|NewFileStorage|storage\.NewFile\b|SetGroupCommit|\bGossipMaxMessages\b'
	pat+='|\bLease: |\bcfg\.Lease\b|ProtocolOptions\.Lease\b'
	pat+='|\bRingDissem\b|internal/dissem|\bDissemNet\b|\bSharedRing\b|\bChanDissem\b'
	pat+='|\bOnTentative\b|\bOnConfirm\b|\bOnRevoke\b|DeliveredTentative|\bStTentative\b|\bStConfirm\b'
	pat+='|EvTentativeRevoke|optimismTracker|Soak(Seeds)?(Sharded)?Optimistic'
	pat+='|driverTimers|\bwireTap\b|acquireLease|leaseWake|startDriverLocked'
	pat+='|sequencerTask|gossipTask|checkpointTask|startWaiter|\bcancelWaits\b|\broundResult\b'
	pat+='|interruptInflightLocked|storage\.NewHeld|\bNewHeld\b'
	pat+='|\bRevokeLease\b|\bLayerTotals\b|\btrimBelow\b|verifyMergedAgreement|verifyCursorMatchesBatch|reshardRecorders'
	pat+='|\bRunSoak\b|\bSoakOptions\b|\bSoakResult\b|\bclusterTarget\b|\bSetClock\b|\bInertView\b|\bnoDecisionCells\b|\bdeferProposals\b|\bevChoose\b|\bevSettle\b'
	pat+='|persistedLater|settleWrites|upcallLoop|\bOnSettle\b|pendingPut|pendingWrite'
	pat+='|Reliable local delivery|this one included|including the sender'
	pat+='|\bconsEffect\b|\bcoreEffect\b|core\.NewMachine|consensus\.NewMachine|core\.NewReplay'
	pat+='|\bcellDecision\b|decide_fsync|decideFsyncNS'
	pat+='|\bsuffixMessagesPrefix\b'
	pat+='|internal/quorum|QuorumReplica|\bReducedConsensus\b|internal/ctbaseline|E7VsCrashStop'
	pat+='|\bChanApp\b|storage\.Null\b|msg\.(New)?Queue\b'
	pat+='|\b(MergeFloor|OnCheckpoint|OnRound|OnRoundSkip|FloorSelf|OnPeerFloor)\b|DiscardFloor\s+func\(|[cC]fg\.DiscardFloor\b'
	if grep -rnE "$pat" --include='*.go' . ||
		grep -nE "$pat" README.md bench/README.md .github/workflows/ci.yml; then
		echo "retired names found (above)"
		return 1
	fi
	if grep -rnE '^\s*go |time\.(AfterFunc|NewTimer|NewTicker)|context\.AfterFunc' --include='*.go' --exclude='*_test.go' \
		internal/core internal/consensus internal/fd internal/node internal/sim; then
		echo "goroutines or wall timers outside internal/loop (above)"
		return 1
	fi
	if grep -rnwE 'epoch|topo' --include='*.go' internal/core; then
		echo "the floor report's fields in the core (above): it relays core.Shard's bytes"
		return 1
	fi
	if ls internal/core/step.go internal/consensus/step.go 2>/dev/null; then
		echo "an exported step surface came back (above): the simulator runs the adapters"
		return 1
	fi
	if grep -rnF 'DeleteAsync(cellKey(' --include='*.go' internal/consensus; then
		echo "a per-cell delete in consensus (above): discard by range"
		return 1
	fi
	if grep -rnF '&walOp{' --include='*.go' internal/storage; then
		echo "a heap op per WAL record (above): queue values, complete by group"
		return 1
	fi
}

[ $# -gt 0 ] || set -- "${steps[@]}"
for s; do
	declare -F "step_$s" >/dev/null || { echo "ci.sh: unknown step $s (have: ${steps[*]})"; exit 2; }
	echo "== ci.sh $s"
	"step_$s"
done
