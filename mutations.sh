#!/usr/bin/env bash
# The mutation ledger: each patch under internal/sim/testdata/mutations/
# puts back a defect this repository once had or guards against, and the
# simulator must catch every one. The script applies each patch with
# `git apply` to a temporary copy of the checkout (working-tree changes
# included), runs the simulator suites there, and reports the patch killed
# (a suite failed) or survived. A survivor fails the script unless
# known-survivors lists it, with the ROADMAP item that is to kill it. A
# patch that no longer applies is reported stale and fails the script too,
# after the other patches have run.
#
#   bash mutations.sh                     # every patch
#   bash mutations.sh self-accept-at-issue # one, by name
#
# It needs nothing outside the repository: git and go.
set -euo pipefail
cd "$(dirname "$0")"
dir=internal/sim/testdata/mutations

# The simulator suites: consensus alone (random batches and scripted
# schedules; its one wall-clock engine test is skipped), the full-stack
# batches and scripted schedules, and the soak batches.
suites=(
	"./internal/consensus/ -skip ^TestEngineCluster"
	"./internal/core/ -run ^(TestSimSchedules|TestCrashBetweenDeliveryAndDecisionCell|TestTotalCrashRelearnsAnAcceptedRound|TestRecoveredProcessSuspectsAPeerItNeverHeard|TestLostPushRepairedByPullUnderLoad)$"
	"./internal/harness/ -run ^(TestSoakSeeds|TestSoakSeedsWAL|TestLeaseLostUnderIsolation)$"
)

names=("$@")
if [ ${#names[@]} -eq 0 ]; then
	for p in "$dir"/*.patch; do names+=("$(basename "$p" .patch)"); done
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0
for name in "${names[@]}"; do
	copy="$tmp/$name"
	mkdir -p "$copy"
	git ls-files -co --exclude-standard -z | tar --null --ignore-failed-read -T - -cf - | tar -C "$copy" -xf -
	if ! (cd "$copy" && git apply "$OLDPWD/$dir/$name.patch" 2>"$copy.log"); then
		# Named, not fatal: the other patches still run.
		echo "$name: stale (does not apply)"
		fail=1
		rm -rf "$copy" "$copy.log"
		continue
	fi
	result=survived
	for suite in "${suites[@]}"; do
		# shellcheck disable=SC2086 # a suite is a package and its flags
		if ! (cd "$copy" && go test -count=1 $suite >"$copy.log" 2>&1); then
			result="killed by ${suite%% *} ($(grep -m1 -oE -- '--- FAIL: [^ ]+' "$copy.log" || echo build))"
			break
		fi
	done
	known=$(grep -E "^$name\b" "$dir/known-survivors" || true)
	if [ "$result" = survived ] && [ -z "$known" ]; then
		fail=1
	fi
	echo "$name: $result${known:+ (known survivor: ${known#"$name "})}"
	rm -rf "$copy" "$copy.log"
done
exit $fail
