#!/usr/bin/env sh
# Long crash+corruption torture campaign (DESIGN.md §14).
#
# Each iteration forks a loader child that crashes at a randomized
# write-path fault point, optionally corrupts the surviving storage
# files with a random byte-level mutation, then recovers both strictly
# and in salvage mode, asserting: never a crash, never silent document
# loss, salvage always reaches a verifiably clean state.
#
# The campaign is seeded and replayable: a failure report names the
# iteration and seed, and rerunning with the same XMLREL_TORTURE_SEED
# reproduces it exactly.
#
# A second pass repeats the serving-side robustness labels
# (`mvcc|concurrency|overload|query`) until the first failure, up to 20
# runs each, so a publication race that shows on one run in twenty
# fails here instead of in tier-1.
#
# Usage: scripts/torture.sh [iterations] [build-dir]
#        (defaults: 250 iterations, build)
#   XMLREL_TORTURE_SEED=0x... scripts/torture.sh 1000   # custom seed
set -eu

cd "$(dirname "$0")/.."
ITERS=${1:-250}
BUILD_DIR=${2:-build}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target torture_test mvcc_test \
      concurrent_query_test overload_test query_diff_test

# The MVCC snapshot-isolation harness rides along: crash-recovered
# state must publish clean epochs, and the oracle is cheap next to the
# fork/corrupt/recover iterations.
XMLREL_TORTURE_ITERS="$ITERS" \
ctest --test-dir "$BUILD_DIR" -L 'torture|mvcc' --output-on-failure
ctest --test-dir "$BUILD_DIR" -L 'mvcc|concurrency|overload|query' \
      --repeat until-fail:20 --output-on-failure -j "$(nproc)"
