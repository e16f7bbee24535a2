#!/usr/bin/env sh
# Sanitizer lanes over the robustness-critical tests.
#
# ASan lane (default): the bulk-load pipeline, the fault-injection matrix,
# the durability layer (snapshots, WAL, crash recovery), the integrity
# checker and corruption fuzzers, the structural-index tests, the
# overload/cancellation lifecycle, the MiniRDB unit tests (the
# copy-on-write B+tree's node splits, path copies and lazy deletes), the
# SQL executor (its evaluator hands out references into table rows,
# literals and caller-owned scratch values, and its batch-filter kernels
# keep pointers to the statement's literals, exactly where a dangling
# reference would hide) through the SQL unit tests and the differential
# query fuzzer, and a short torture campaign — every code path that
# handles torn/corrupt input, label arithmetic, shared index nodes,
# borrowed cells, or mid-query unwinding.  The full suite under ASan is
# slow; these labels are where the sanitizer earns its keep.
#
# TSan lane (`thread`): the bulk-load pipeline and the fault-injection
# matrix (every corpus load runs through BulkLoader's worker pool, whose
# pk-range reservations and fail-fast stop flag are shared between
# threads), the differential query fuzzer, the concurrent serving tests — readers racing loads and checkpoints, the worker pool,
# the caches, and shared ExecStats — plus the MVCC snapshot-isolation
# harness (DESIGN.md §15), which is load-bearing HERE: its oracle only
# proves epochs are handed off race-free if TSan watches the readers
# fingerprint pinned versions while the writer commits beside them.
# Also the structural-index tests, whose bulk label merge and
# range-scan counters are shared state, and the overload tests
# (admission racing shutdown, abandon-cancel).  A second TSan pass
# repeats the `mvcc|concurrency|overload|query` labels until the first
# failure, up to 20 runs each: every publication point must be atomic to
# readers on every run, not on most runs.
#
# UBSan lane (`undefined`): the planner's selectivity/cost arithmetic
# (double math over row counts, bitmask subset walks), the structural
# interval label arithmetic, the query fuzzer, the integrity checker
# (which sums attacker-controlled label spans), the MiniRDB unit
# tests (B+tree split/rank index arithmetic, the column-major chunks'
# cell index arithmetic), the SQL unit tests (the executor's signed
# integer arithmetic, the batch filter's compaction), and the durability
# and bulk-load tests, whose recovery and Table::insert_batch write every
# row through that chunk arithmetic — the code where a silent overflow
# would skew a plan, an index or a cell address rather than crash.
#
# Both ASan and TSan lanes also carry the planner label: statistics are
# folded on the commit path and read by concurrent planning threads.
#
# Usage: scripts/sanitize_lane.sh [address|thread|undefined] [build-dir]
#        (defaults: address, build-asan / build-tsan / build-ubsan)
set -eu

cd "$(dirname "$0")/.."
LANE=${1:-address}

case "$LANE" in
  address)
    BUILD_DIR=${2:-build-asan}
    LABELS='bulk|fault|durability|integrity|index|overload|planner|mvcc|torture|rdb|query|sql'
    # Keep the sanitized torture leg short; scripts/torture.sh owns the
    # long campaign on the plain build.
    XMLREL_TORTURE_ITERS=${XMLREL_TORTURE_ITERS:-10}
    export XMLREL_TORTURE_ITERS
    ;;
  thread)
    BUILD_DIR=${2:-build-tsan}
    LABELS='bulk|fault|query|concurrency|mvcc|index|overload|planner'
    ;;
  undefined)
    BUILD_DIR=${2:-build-ubsan}
    LABELS='planner|index|query|integrity|mvcc|rdb|sql|durability|bulk'
    ;;
  *)
    echo "usage: $0 [address|thread|undefined] [build-dir]" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DXMLREL_SANITIZE="$LANE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L "$LABELS" \
      --output-on-failure -j "$(nproc)"
if [ "$LANE" = thread ]; then
  ctest --test-dir "$BUILD_DIR" -L 'mvcc|concurrency|overload|query' \
        --repeat until-fail:20 --output-on-failure -j "$(nproc)"
fi
