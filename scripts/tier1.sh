#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): the standard build + full ctest run,
# then the store/cache suite again under ThreadSanitizer. The transform
# cache's single-flight path is exercised concurrently from
# apply_transform_all, so a plain pass alone is weak evidence — TSan turns
# latent races in the blob store / cache / metrics registry into failures.
# tests_store also carries the fault-schedule walk and the PSP degraded-mode
# suite, so the injected-fault retry/quarantine paths get TSan coverage too.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

# The kernel equivalence suite again on the forced-scalar tier: ctest above
# already ran it on the native tier, so this pins the scalar/SIMD bit-exact
# contract (and the PUPPIES_SIMD override path) on every machine.
PUPPIES_SIMD=scalar ./build/tests/tests_kernels

# The encode differential suite again on the forced-scalar tier: byte
# identity of the fast encoder against the reference bit-at-a-time encoder
# must hold on every tier, and ctest above only covered the native one.
PUPPIES_SIMD=scalar ./build/tests/tests_encode

# The band-pipeline differential suite on the forced-scalar tier too: byte
# identity of the band pipeline vs the test-side seed reference is claimed
# per SIMD tier.
PUPPIES_SIMD=scalar ./build/tests/tests_chunked

# The decode differential suite on the forced-scalar tier: the band
# inverse pipeline and the fused dequantize+IDCT kernel claim bit identity
# with the test-side seed reference per SIMD tier, and ctest only ran the
# native one.
PUPPIES_SIMD=scalar ./build/tests/tests_decode

# The CLI help must print its UTF-8 section signs intact: a "\xc2\xa714"
# literal is one out-of-range hex escape in C++, and prints a stray byte.
HELP=$(./build/tools/puppies 2>&1 || true)
grep -q '§14' <<<"$HELP" \
  || { echo "puppies help lost the section sign before 14"; exit 1; }

# The serving benchmark's own checks: its unit tests, and that
# BENCHMARK.json still equals the spec servebench/run.py declares.
python3 servebench/run.py --self-test

# Loopback serving smoke: a real `puppies serve` process (ephemeral port,
# discovered through --port-file), the zipfian load harness against it over
# 8 connections with byte-identity checked per download, then SIGINT and a
# clean graceful drain. This is the one place the CLI server, the client,
# and the bench harness meet as separate processes.
SMOKE_DIR=$(mktemp -d)
./build/tools/puppies serve --port 0 --port-file "$SMOKE_DIR/port" \
  >"$SMOKE_DIR/serve.log" 2>"$SMOKE_DIR/serve.err" & SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SMOKE_DIR/port" ] && break; sleep 0.1; done
[ -s "$SMOKE_DIR/port" ] || { echo "serve never wrote its port file"; exit 1; }
REPO_ROOT=$(pwd)
( cd "$SMOKE_DIR" && "$REPO_ROOT/build/bench/bench_load" \
    --connect "127.0.0.1:$(cat port)" --connections 8 --seconds 1 )
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
grep -q "drained" "$SMOKE_DIR/serve.log" \
  || { echo "serve did not drain cleanly"; exit 1; }
rm -rf "$SMOKE_DIR"

# Kill-one-backend chaos smoke: serve over a 3-shard replicated store with
# one shard failing every read (injected via PUPPIES_FAULTS), then the load
# harness with a fully raw corpus — untransformed downloads bypass the
# transform cache, so every request exercises replica failover in the blob
# store. bench_load's exit code asserts zero byte mismatches; the serve
# metrics dump must record at least one read-repair.
CHAOS_DIR=$(mktemp -d)
PUPPIES_FAULTS="store.shard.0.get.fail=always" \
  ./build/tools/puppies serve --port 0 --port-file "$CHAOS_DIR/port" \
    --backend replicated --dir "$CHAOS_DIR/data" --shards 3 \
    --replicas 3 --quorum 2 \
    >"$CHAOS_DIR/serve.log" 2>"$CHAOS_DIR/serve.err" & CHAOS_PID=$!
for _ in $(seq 1 100); do [ -s "$CHAOS_DIR/port" ] && break; sleep 0.1; done
[ -s "$CHAOS_DIR/port" ] || { echo "chaos serve never wrote its port file"; exit 1; }
( cd "$CHAOS_DIR" && "$REPO_ROOT/build/bench/bench_load" \
    --connect "127.0.0.1:$(cat port)" --connections 4 --seconds 1 \
    --raw 1.0 --retries 3 )
kill -INT "$CHAOS_PID"
wait "$CHAOS_PID"
grep -Eq '"store\.repl\.read_repair": [1-9]' "$CHAOS_DIR/serve.err" \
  || { echo "chaos smoke recorded no read-repair"; exit 1; }
rm -rf "$CHAOS_DIR"

# Replicated-store failure-lifecycle bench: put/get under failover, scrub
# repair of real on-disk bit-rot, refcounted GC. Its exit code asserts byte
# identity, post-scrub convergence, at least one read-repair, and a
# non-empty GC reclaim.
BENCH_STORE_DIR=$(mktemp -d)
( cd "$BENCH_STORE_DIR" && "$REPO_ROOT/build/bench/bench_store" \
    --blobs 24 --blob-kb 32 --gets 400 )
rm -rf "$BENCH_STORE_DIR"

# Codec bench identity gates: the emitted BENCH_codec.json must report the
# restart-segment parallel encode byte-identical at 1 and N threads, and the
# segment-parallel decode coefficient-identical to the serial decoder.
BENCH_DIR=$(mktemp -d)
( cd "$BENCH_DIR" && "$REPO_ROOT/build/bench/codec_throughput" \
    --benchmark_filter='^$' )
grep -q '"chunked_byte_identical": true' "$BENCH_DIR/BENCH_codec.json" \
  || { echo "BENCH_codec.json: parallel encode diverged across thread counts"; exit 1; }
grep -q '"decode_byte_identical": true' "$BENCH_DIR/BENCH_codec.json" \
  || { echo "BENCH_codec.json: parallel decode diverged from the serial decoder"; exit 1; }
rm -rf "$BENCH_DIR"

# tests_chunked rides under TSan alongside the store suite: the parallel
# restart-segment writers and the per-chunk pipeline stages are new
# shared-state concurrency, so races there must surface as failures, not
# as one-in-a-thousand flaky byte mismatches. tests_net joins them: the
# event loop, dispatcher queue, per-entry PSP locking, and the completion
# hand-off are the newest shared-state code in the repo, and the suite
# hammers them from eight client threads on purpose. tests_decode joins
# too: the segment-parallel entropy decoder's per-segment readers and the
# fallback flag are shared-state code on the same pool. tests_jpeg joins
# because the lossless block remap writes its output block rows from the
# pool, and its differential test runs it at 1, 2 and 8 threads.
cmake -B build-tsan -S . -DPUPPIES_SANITIZE=thread
cmake --build build-tsan -j"$(nproc)" --target tests_store tests_chunked tests_net tests_decode tests_jpeg
./build-tsan/tests/tests_store
./build-tsan/tests/tests_chunked
./build-tsan/tests/tests_net
./build-tsan/tests/tests_decode
./build-tsan/tests/tests_jpeg

# Mutation fuzzing of the JPEG parser under the memory sanitizers: ten
# thousand seeded mutants per run must produce clean ParseErrors, never a
# heap error (ASan) or undefined behaviour (UBSan). Mutants that survive
# parsing are additionally re-encoded with optimized Huffman tables, so the
# histogram/table-build path sees hostile coefficient distributions under
# the sanitizers too. The plain build above already ran the suite once;
# these runs are what the crash-free claim actually rests on. tests_chunked
# rides along: the streamed re-encode indexes row windows, rings and halos
# by hand, and its differential matrix (1-pixel planes, 10x downscales,
# chunk sizes down to one MCU row) is what walks their edges.
cmake -B build-asan -S . -DPUPPIES_SANITIZE=address
cmake --build build-asan -j"$(nproc)" --target tests_fuzz tests_chunked
./build-asan/tests/tests_fuzz
./build-asan/tests/tests_chunked

cmake -B build-ubsan -S . -DPUPPIES_SANITIZE=undefined
cmake --build build-ubsan -j"$(nproc)" --target tests_fuzz tests_chunked
./build-ubsan/tests/tests_fuzz
./build-ubsan/tests/tests_chunked

echo "tier-1: OK (full suite + scalar-tier tests_kernels/tests_encode/tests_chunked/tests_decode + CLI help text + servebench self-test + loopback serve/bench_load smoke + kill-one-backend chaos smoke + bench_store + codec chunked/decode identity gates + tests_store/tests_chunked/tests_net/tests_decode/tests_jpeg under TSan + tests_fuzz/tests_chunked under ASan/UBSan)"
