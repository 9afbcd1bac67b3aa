#!/usr/bin/env bash
# Sanitizer ctest jobs (the BCC_SANITIZE CMake option wired to ctest):
#
#   * ThreadSanitizer over the serving-layer + chaos + observability tests —
#     the QueryService concurrency test races submit_batch against refresh()
#     snapshot swaps, the EpochPtr storm test pins readers across publish()
#     reclamation (the proof a reader never touches a freed snapshot), the
#     overload suite races shedding against admission bookkeeping, the chaos
#     suite swaps degraded snapshots mid-serve, the QueryServiceStats test
#     reads stats() while submits and batches race to account queries
#     into the service's instruments, and the obs suite
#     hammers the striped counters / histogram buckets / tracer ring from
#     many threads — exactly the code TSan exists for; the ObsProfiler and
#     QueryProfile tests run the SIGPROF sampler and the explain stage
#     clocks under TSan, so a handler touching anything beyond its lock-free
#     slot ring (and the exemplar stripes racing record against snapshot)
#     would light up here; the Transport/Net
#     tests pump two TcpTransports from separate threads while EventEngine
#     timer cancellation races transport-driven retries (the shared surface
#     is the global bcc.net.* instruments and the frame codec);
#   * AddressSanitizer + UBSan over the full suite, chaos + obs suites
#     included (fault injection exercises cancellation/retry paths that
#     juggle timer lifetimes — prime use-after-free territory).
#
# The chaos sweeps honor BCC_CHAOS_SEEDS / BCC_CHAOS_N (see
# tests/chaos_test.cpp); nightly jobs export larger values before invoking
# this script, e.g. BCC_CHAOS_SEEDS=10 BCC_CHAOS_N=24 tools/sanitize.sh.
# A plain (unsanitized) chaos pass is just `ctest -L chaos` in any build dir.
#
# Usage: tools/sanitize.sh [tsan|asan|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
jobs="$(nproc)"

run_tsan() {
  cmake -B build-tsan -S . -DBCC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "${jobs}" --target bcc_tests bcc_chaos_tests bcc_obs_tests bcc_transport_tests bcc_cli
  ctest --test-dir build-tsan \
        -R 'QueryService|QueryStatusApi|QueryShard|QueryProfile|Epoch|Chaos|Obs|Transport|Net' \
        --output-on-failure -j "${jobs}"
}

run_asan() {
  cmake -B build-asan -S . -DBCC_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "${jobs}" --target bcc_tests bcc_chaos_tests bcc_obs_tests bcc_transport_tests bcc_cli
  ctest --test-dir build-asan --output-on-failure -j "${jobs}"
}

case "${mode}" in
  tsan) run_tsan ;;
  asan) run_asan ;;
  all) run_tsan; run_asan ;;
  *) echo "usage: $0 [tsan|asan|all]" >&2; exit 2 ;;
esac
