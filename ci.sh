#!/usr/bin/env bash
# CI entry point: build all three presets, run the full suite on the
# optimized build, run the index differential/cache suites under ASan+UBSan,
# run the shard-pool/determinism suites under TSan, run the examples, gate
# src/ function coverage (coverage preset), and smoke the repository
# benchmark's three workloads.
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 4)

# GCC 12 miscompiles co_await used as a conditional-operator operand
# (DESIGN.md section 5k); reject it at the source before building.
echo "==> source check: no co_await as a ternary operand"
python3 tools/check_coawait_ternary.py src bench tests perfbench examples

# Payloads are typed everywhere but in the mpisim mailbox, whose payload
# types form an open set; raft, pfs and the rest must not reintroduce
# type-erased commands, results or messages.
echo "==> source check: no std::any outside src/mpisim/"
if grep -rnE --include='*.h' --include='*.cc' '\bstd::any\b|\bany_cast\b|#include <any>' src \
    | grep -v '^src/mpisim/'; then
  echo "std::any outside src/mpisim/: use a typed payload"
  exit 1
fi

echo "==> configure + build (default preset)"
cmake --preset default
cmake --build --preset default -j "$jobs"

echo "==> full test suite (default preset)"
ctest --preset default -j "$jobs"

echo "==> configure + build (asan preset)"
cmake --preset asan
cmake --build --preset asan -j "$jobs"

echo "==> index differential + cache + wire-codec tests under ASan/UBSan"
ctest --preset asan -j "$jobs" -R \
  'IndexDiff|IndexCache|IndexProperty|IndexSerialization|Varint|WireV2'

# A rank whose Parallel Index Read fails must not strand the others in a
# collective: every rank returns, so no suspended frame leaks.
echo "==> Parallel Index Read failure path under ASan/UBSan (no stranded ranks)"
ctest --preset asan -j "$jobs" -R '^EndToEnd\.MissingIndexLogSurfacesCleanly$'

# DeepAwaitChains is excluded: gcc does not tail-call the coroutine
# symmetric transfer at -O0, so the 100k-deep chain overflows the stack in
# any sanitizer build (seed behaves the same); the guarantee it checks is an
# optimized-build property and stays covered by the default-preset run.
echo "==> sim/net/mpisim suites under ASan/UBSan (engine pools, intrusive waiters, LRU)"
ctest --preset asan -j "$jobs" -R \
  '^(Engine|Determinism|EventPool|FramePool|MoveFn|Mutex|Semaphore|Gate|WaitGroup|Queue|FairShare|FcfsServer|Runtime|PageCache|Cluster|ClusterConfigValidate|Comm|Topology|FlowNet|MaxMin)\.' \
  -E 'DeepAwaitChains'

echo "==> chaos + raft suites under ASan/UBSan (fault injection, retry, failover)"
ctest --preset asan -j "$jobs" -R '^(Chaos|FaultPlan|FaultyFs|FaultyFsTest|Rig|RetryPolicy|RetryBudget|RetryLoop|RetryingFs|DirectFault|Status|RaftTest)\.'

# The path table (Namespace) addresses every node by a dense id;
# its differential suite against the tree oracle and the in-memory file
# system built on it run here alongside the SimPfs suites that use it.
echo "==> namespace + metadata batch + lease-cache + SimPfs mutation suites under ASan/UBSan"
ctest --preset asan -j "$jobs" -R \
  '^(Namespace|NamespaceDiff|MemFsTest|MetaBatch|MetaCache|MetaCacheSimPfs|SimPfsTest)\.'

# The extent store keeps extents in sorted leaf vectors; its differential
# suite against the std::map oracle (tests/pfs/map_extent_map.h) splits and
# merges leaves, so it runs here too (parameterized suites carry a Seeds/
# prefix).
echo "==> extent map + differential suites under ASan/UBSan"
ctest --preset asan -j "$jobs" -R '^(Seeds/)?ExtentMap[A-Za-z]*\.'

# TinyNc/TinyHdf share iolib_test with the Cb suites; a rank that fails a
# read must still meet its peers at the barrier, or their frames leak.
echo "==> collective-buffering + formatted-library suites under ASan/UBSan (exchange, census, config, sieving, grouping, error paths)"
ctest --preset asan -j "$jobs" -R '^(CbDifferential|CbCensus|CbConfig|CbSieve|CbNodePlan|CbWrite|CbRead|CbAggregators|TinyNc|TinyHdf)\.'

echo "==> trace + stats + jsonfmt suites under ASan/UBSan"
ctest --preset asan -j "$jobs" -R '^(TraceTest|Histograms|Counters|Grouping|JsonDouble|JsonQuote)\.'

echo "==> configure + build (tsan preset)"
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"

# The shard pool's safety argument (shard-local stats and trace buffers,
# one engine per job, joins before merges) must hold under ThreadSanitizer,
# not just under the test matrix. TIO_MATRIX_RANKS shrinks the 4096-rank
# determinism matrix so the instrumented run stays affordable.
echo "==> sim + mpisim suites and the cross-shard determinism matrix under TSan"
TIO_MATRIX_RANKS=512 ctest --preset tsan -j "$jobs" -R \
  '^(Engine|EventPool|FramePool|Determinism|ShardPool|ShardedTraceTest|Queue|FairShare|FcfsServer|Runtime|Comm|RaftTest|Topology|FlowNet|MaxMin)\.' \
  -E 'DeepAwaitChains'

# The batcher and lease cache run inside every shard's engine when fig7 is
# sharded; the suites must stay clean under TSan alongside the engine.
echo "==> metadata batch + lease-cache suites under TSan"
ctest --preset tsan -j "$jobs" -R '^(MetaBatch|MetaCache|MetaCacheSimPfs)\.'

# The collective layer's sharded-counter writes (message census, sieve
# stats) run on every shard thread; the differential suite under TSan pins
# that those are race-free alongside the engine's own sharding.
echo "==> collective-buffering differential + census suites under TSan"
ctest --preset tsan -j "$jobs" -R '^(CbDifferential|CbCensus|CbSieve)\.'

echo "==> fig7 under the stress fault plan must exit clean"
./build/bench/fig7_metadata_nn --procs 64 --max-files 2048 --fault_plan=stress >/dev/null

echo "==> fig7 with the raft-replicated MDS must survive the stress plan"
./build/bench/fig7_metadata_nn --procs 64 --max-files 2048 --fault_plan=stress \
  --mds_replication=raft >/dev/null

echo "==> every bench --json / --trace output must be valid JSON"
# A comma-decimal locale would corrupt printf-formatted floats; emitters go
# through json_double, so output must parse even under e.g. de_DE. The
# container may only ship C/POSIX — fall back gracefully when absent.
json_locale="C"
for cand in de_DE.UTF-8 de_DE.utf8 fr_FR.UTF-8 fr_FR.utf8; do
  if locale -a 2>/dev/null | grep -qix "$cand"; then json_locale="$cand"; break; fi
done
echo "    (locale guard: LC_ALL=$json_locale)"
out=build/ci_artifacts
mkdir -p "$out"
LC_ALL="$json_locale" ./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 \
  --json="$out/fig4.json" --trace="$out/fig4_trace.json" >"$out/fig4_run1.txt" 2>/dev/null
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  --json="$out/fig7.json" --trace="$out/fig7_trace.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  --fault_plan=failover --mds_replication=raft \
  --json="$out/fig7_raft.json" --trace="$out/fig7_raft_trace.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/fig8_large_scale --max-read-procs 512 \
  --max-meta-procs 256 --per-proc-mib 1 \
  --json="$out/fig8.json" --trace="$out/fig8_trace.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/micro_sim --trace="$out/micro_sim_trace.json" \
  --benchmark_filter='BM_CoroutineHops/1000' >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/micro_index --trace="$out/micro_index_trace.json" \
  --benchmark_filter='BM_IndexBuildStrided/64' >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  --cb-node-agg --cb-sieve-threshold=2 --noncontig \
  --json="$out/fig5_cb.json" --trace="$out/fig5_cb_trace.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  --cb-sieve-threshold=2 --noncontig \
  --json="$out/fig5_rank.json" --trace="$out/fig5_rank_trace.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/ablation_cb_aggregation --procs 32 --total-mib 8 \
  --json="$out/ablation_cb.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/ablation_topology --procs 64 --per-proc-mib 1 \
  --json="$out/ablation_topo.json" >/dev/null 2>&1
for f in "$out"/fig4.json "$out"/fig7.json "$out"/fig7_raft.json "$out"/fig8.json \
         "$out"/fig5_cb.json "$out"/fig5_rank.json "$out"/ablation_cb.json \
         "$out"/ablation_topo.json "$out"/fig4_trace.json "$out"/fig7_trace.json \
         "$out"/fig7_raft_trace.json "$out"/fig8_trace.json "$out"/fig5_cb_trace.json \
         "$out"/fig5_rank_trace.json \
         "$out"/micro_sim_trace.json "$out"/micro_index_trace.json; do
  python3 -m json.tool "$f" >/dev/null || { echo "invalid JSON: $f"; exit 1; }
done

echo "==> --json quotes strings and carries every counter family"
# One writer builds every --json report: a quote or a backslash in a
# fault-plan prefix must come back as the same string, and the counters
# block holds every registered counter (the direct comparator's
# direct.retry.* included), not a per-bench list.
for spec in 'outage=/vol"9@0-1' 'outage=/v\x@0-1'; do
  LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
    --fault_plan="$spec" --json="$out/fig7_escape.json" >/dev/null 2>&1
  python3 - "$out/fig7_escape.json" "$spec" <<'PY'
import json, sys
got = json.load(open(sys.argv[1]))["config"]["fault_plan"]
assert got == sys.argv[2], f"fault_plan echoed as {got!r}, want {sys.argv[2]!r}"
PY
done
LC_ALL="$json_locale" ./build/bench/fig8_large_scale --max-read-procs=256 \
  --max-meta-procs=256 --fault_plan=stress --json="$out/fig8_stress.json" >/dev/null 2>&1
python3 - "$out/fig8_stress.json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert "direct.retry.attempts" in counters, "direct.retry.attempts missing from counters"
PY

echo "==> fig4 trace: per-phase open breakdown must sum to the open window (1%)"
python3 tools/check_trace.py "$out/fig4_trace.json"

echo "==> fig5 traces: cb phase spans must tile every cb.write/cb.read window (both groupings)"
python3 tools/check_trace.py "$out/fig5_cb_trace.json"
python3 tools/check_trace.py "$out/fig5_rank_trace.json"

echo "==> fig5 smoke stdout must match the checked-in golden outputs (both groupings)"
# One golden per exchange grouping: per rank (the default) and per node
# with sieving on the noncontig kernel. A deliberate model change must
# regenerate them by redirecting the same commands' stdout into the golden
# files. The C locale keeps the tables' decimal points stable; --shards=4
# must agree.
LC_ALL=C ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  >"$out/fig5_golden_run.txt" 2>/dev/null
cmp tests/golden/fig5_smoke_stdout.txt "$out/fig5_golden_run.txt"
LC_ALL=C ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  --cb-node-agg --cb-sieve-threshold=2 --noncontig >"$out/fig5_cb_golden_run.txt" 2>/dev/null
cmp tests/golden/fig5_cb_node_agg_stdout.txt "$out/fig5_cb_golden_run.txt"
LC_ALL=C ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  --shards=4 >"$out/fig5_golden_run_s4.txt" 2>/dev/null
cmp tests/golden/fig5_smoke_stdout.txt "$out/fig5_golden_run_s4.txt"
LC_ALL="$json_locale" ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  >"$out/fig5_run1.txt" 2>/dev/null

echo "==> fig4 stdout must be byte-identical across reruns"
LC_ALL="$json_locale" ./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 \
  --trace="$out/fig4_trace2.json" >"$out/fig4_run2.txt" 2>/dev/null
cmp "$out/fig4_run1.txt" "$out/fig4_run2.txt"
cmp "$out/fig4_trace.json" "$out/fig4_trace2.json"

echo "==> fig4 smoke stdout must match the checked-in golden output"
# A pin on the surviving fabric model, not on a legacy path: any change to
# simulated results shows up here and must update the golden file on
# purpose. The C locale keeps the table's decimal points stable.
LC_ALL=C ./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 \
  >"$out/fig4_golden_run.txt" 2>/dev/null
cmp tests/golden/fig4_smoke_stdout.txt "$out/fig4_golden_run.txt"

echo "==> explicit --topology=flat stdout must match the default byte-for-byte"
# The flat preset is one switch: its routes ignore rack geometry and
# oversubscription, so passing them explicitly must agree with the
# flagless binary exactly, on every bench that threads the fabric flags.
LC_ALL="$json_locale" ./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 \
  --topology=flat --racks=8 --oversubscription=4 >"$out/fig4_run_flat.txt" 2>/dev/null
cmp "$out/fig4_run1.txt" "$out/fig4_run_flat.txt"
LC_ALL="$json_locale" ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  --topology=flat --racks=8 --oversubscription=4 >"$out/fig5_run_flat.txt" 2>/dev/null
cmp "$out/fig5_run1.txt" "$out/fig5_run_flat.txt"
LC_ALL="$json_locale" ./build/bench/fig8_large_scale --max-read-procs 256 \
  --max-meta-procs 128 --per-proc-mib 1 >"$out/fig8_run1.txt" 2>/dev/null
LC_ALL="$json_locale" ./build/bench/fig8_large_scale --max-read-procs 256 \
  --max-meta-procs 128 --per-proc-mib 1 \
  --topology=flat --racks=8 --oversubscription=4 >"$out/fig8_run_flat.txt" 2>/dev/null
cmp "$out/fig8_run1.txt" "$out/fig8_run_flat.txt"

echo "==> tor at 8:1 must show the incast collapse that rack groups recover"
# The headline scenario of BENCH_topology.json at smoke scale: thin racks
# (2 nodes) so the 8:1 uplink is below a single NIC, sqrt groups straddle
# racks, rack-aware groups keep gathers inside a ToR. The gate asserts the
# ordering, not exact timings: sqrt@8:1 slower than sqrt@1:1, and the rack
# grouping strictly cheaper in cross-rack bytes (>= 1.5x).
LC_ALL="$json_locale" ./build/bench/ablation_topology --procs 128 --racks 32 \
  --per-proc-mib 1 --json="$out/ablation_topo_pin.json" >/dev/null 2>&1
python3 - "$out/ablation_topo_pin.json" <<'PY'
import json, sys
rows = {(r["topology"], r["oversubscription"], r["grouping"]): r
        for r in json.load(open(sys.argv[1]))["rows"]}
base = rows[("tor", 1.0, "sqrt")]["read_open_s"]
slow = rows[("tor", 8.0, "sqrt")]["read_open_s"]
rack = rows[("tor", 8.0, "rack")]["read_open_s"]
xb_sqrt = rows[("tor", 8.0, "sqrt")]["cross_rack_bytes"]
xb_rack = rows[("tor", 8.0, "rack")]["cross_rack_bytes"]
print(f"    tor sqrt open: 1:1={base:.3f}s 8:1={slow:.3f}s; rack@8:1={rack:.3f}s; "
      f"x-rack bytes sqrt={xb_sqrt} rack={xb_rack}")
assert slow > base * 1.1, f"no incast collapse: {slow:.3f}s vs {base:.3f}s"
assert rack < slow, f"rack groups did not recover: {rack:.3f}s vs {slow:.3f}s"
assert xb_sqrt >= 1.5 * xb_rack, f"cross-rack reduction below 1.5x: {xb_sqrt}/{xb_rack}"
PY

echo "==> fig7 smoke stdout must match the checked-in golden outputs"
# Every namespace mutation takes one route (SimPfs::mutate). Two goldens
# pin the paths that must not move: the unreplicated unbatched default,
# and raft with batching + leases. A third pins the unbatched raft
# failover sweep (one append schedule). A deliberate model change must
# regenerate them by redirecting the same commands' stdout into the golden
# files; the C locale keeps the tables' decimal points stable.
LC_ALL=C ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  >"$out/fig7_golden_run.txt" 2>/dev/null
cmp tests/golden/fig7_smoke_stdout.txt "$out/fig7_golden_run.txt"
LC_ALL=C ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 --mds_replication=raft \
  --mds_batch=64 --mds_batch_linger_us=1000 --meta_lease_ms=50 \
  >"$out/fig7_raft_batched_golden_run.txt" 2>/dev/null
cmp tests/golden/fig7_raft_batched_stdout.txt "$out/fig7_raft_batched_golden_run.txt"
LC_ALL=C ./build/bench/fig7_metadata_nn --procs 64 --max-files 2048 --fault_plan=failover \
  --mds_replication=raft >"$out/fig7_failover_raft_golden_run.txt" 2>/dev/null
cmp tests/golden/fig7_failover_raft_stdout.txt "$out/fig7_failover_raft_golden_run.txt"

echo "==> fig8 stress-plan stdout must match the checked-in golden output (1 and 4 shards)"
# Every retry path runs here, under the stress fault plan: PLFS ops and
# torn-write resumes through Plfs's RetryingFs, and the direct comparator's
# opens, writes, reads and closes through the rig's direct RetryingFs.
# Both key each op's backoff jitter by one rule (open: the path key;
# mkdir/unlink/stat/readdir: that key ^1/^3/^4/^5; close and write: the
# fd; read: fd ^ offset), so any change to the rule or the schedule moves
# the tables. A deliberate model change must regenerate the golden by
# redirecting the same command's stdout into it.
LC_ALL=C ./build/bench/fig8_large_scale --max-read-procs=256 --max-meta-procs=256 \
  --fault_plan=stress >"$out/fig8_stress_golden_run.txt" 2>/dev/null
cmp tests/golden/fig8_stress_stdout.txt "$out/fig8_stress_golden_run.txt"
LC_ALL=C ./build/bench/fig8_large_scale --max-read-procs=256 \
  --max-meta-procs=256 --fault_plan=stress --shards=4 \
  >"$out/fig8_stress_golden_run_s4.txt" 2>/dev/null
cmp tests/golden/fig8_stress_stdout.txt "$out/fig8_stress_golden_run_s4.txt"

echo "==> fig7 raft + failover plan stdout must be byte-identical across reruns"
# Leader crashes, elections, and redirects are all simulated events: a
# (seed, fault plan) pair is a pure function of its inputs.
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  --fault_plan=failover --mds_replication=raft >"$out/fig7_raft_run1.txt" 2>/dev/null
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  --fault_plan=failover --mds_replication=raft >"$out/fig7_raft_run2.txt" 2>/dev/null
cmp "$out/fig7_raft_run1.txt" "$out/fig7_raft_run2.txt"

echo "==> fig7 batch=64 must amortize >=10x MDS mutation round trips per create"
# The perf pin for the batcher: the same storm, batched at 64 with a 1 ms
# linger, needs at most a tenth of the unbatched mutation round trips
# (counters are totals over identical sweeps, so the ratio is per-create).
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 64 --min-files 2048 \
  --max-files 2048 --json="$out/fig7_b0_pin.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 64 --min-files 2048 \
  --max-files 2048 --mds_batch=64 --mds_batch_linger_us=1000 --meta_lease_ms=50 \
  --json="$out/fig7_b64_pin.json" >/dev/null 2>&1
python3 - "$out/fig7_b0_pin.json" "$out/fig7_b64_pin.json" <<'PY'
import json, sys
unbatched = json.load(open(sys.argv[1]))["counters"]["pfs.meta.mutation_round_trips"]
batched = json.load(open(sys.argv[2]))["counters"]["pfs.meta.mutation_round_trips"]
ratio = unbatched / max(1, batched)
print(f"    mutation round trips: unbatched={unbatched} batched={batched} ({ratio:.1f}x)")
assert ratio >= 10.0, f"batch=64 amortization regressed: {ratio:.2f}x < 10x"
PY

echo "==> shrunk million-file fig7 create storm must complete in both MDS modes"
# The full 10^6-file storm is a bench-box run; TIO_FIG7_MAX_FILES caps the
# sweep so CI proves the same code path (single-row million-file request,
# batching + leases on) at smoke scale.
TIO_FIG7_MAX_FILES=4096 LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn \
  --procs 64 --min-files 1000000 --max-files 1000000 \
  --mds_batch=64 --mds_batch_linger_us=1000 --meta_lease_ms=50 >/dev/null 2>&1
TIO_FIG7_MAX_FILES=4096 LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn \
  --procs 64 --min-files 1000000 --max-files 1000000 --mds_replication=raft \
  --mds_batch=64 --mds_batch_linger_us=1000 --meta_lease_ms=50 >/dev/null 2>&1

echo "==> fig4 --shards=4 stdout and trace must match --shards=1 byte-for-byte"
# Sharding spreads rows across threads but every simulated result is a pure
# function of the row, and trace pids are keyed by row, so neither the
# tables nor the exported trace can change with the shard count.
LC_ALL="$json_locale" ./build/bench/fig4_read_scaling \
  --max-streams 32 --per-proc-mib 2 --shards=4 \
  --trace="$out/fig4_trace_s4.json" >"$out/fig4_run_s4.txt" 2>/dev/null
cmp "$out/fig4_run1.txt" "$out/fig4_run_s4.txt"
cmp "$out/fig4_trace.json" "$out/fig4_trace_s4.json"

echo "==> examples at smoke sizes; quickstart stays inside its own fresh subdirectory"
# quickstart runs PLFS on the host file system under --dir; it must create
# its own subdirectory there, touch nothing else, and exit nonzero unless
# the logical file reads back intact.
qs_parent=$(mktemp -d)
echo keep >"$qs_parent/sentinel"
./build/examples/quickstart --dir "$qs_parent" >"$out/quickstart.txt"
grep -q 'verified byte-for-byte' "$out/quickstart.txt" \
  || { echo "quickstart did not verify its read-back"; cat "$out/quickstart.txt"; exit 1; }
[ "$(cat "$qs_parent/sentinel")" = keep ] \
  || { echo "quickstart touched a file it did not create"; exit 1; }
rm -rf "$qs_parent"
./build/examples/checkpoint_restart --procs 32 --per-proc-mib 1 >/dev/null
./build/examples/metadata_federation --procs 32 --files-per-proc 4 >/dev/null
./build/examples/formatted_io --procs 16 --data-mib 16 >/dev/null

# The profiling cross-checks: an LD_PRELOAD heap interposer that reports
# live bytes by call site at the heap's peak, and a SIGPROF stack sampler.
# Each runs once on the pinned fig4 smoke and must write a non-empty report
# that tools/symbolize.py resolves. The sampler unwinds inside its signal
# handler, so its run is bounded by timeout (tools/sampler.c, "Signal
# safety").
echo "==> profiling tools: heap interposer and SIGPROF sampler reports on a smoke bench"
mkdir -p build/tools
${CC:-cc} -O2 -g -Wall -Wextra -shared -fPIC -o build/tools/libtio_heapprof.so tools/heapprof.c -ldl
${CC:-cc} -O2 -g -Wall -Wextra -shared -fPIC -o build/tools/libtio_sampler.so tools/sampler.c -ldl -lrt
LD_PRELOAD="$PWD/build/tools/libtio_heapprof.so" TIO_HEAPPROF_OUT="$out/heapprof_fig4.txt" \
  ./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 >/dev/null 2>&1
grep -q '^[0-9]' "$out/heapprof_fig4.txt" \
  || { echo "heap interposer wrote no call sites"; cat "$out/heapprof_fig4.txt"; exit 1; }
python3 tools/symbolize.py "$out/heapprof_fig4.txt" --top 5
timeout 300 env LD_PRELOAD="$PWD/build/tools/libtio_sampler.so" TIO_SAMPLER_OUT="$out/sampler_fig4.txt" \
  ./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 >/dev/null 2>&1
grep -q '^[0-9]' "$out/sampler_fig4.txt" \
  || { echo "sampler wrote no stacks"; cat "$out/sampler_fig4.txt"; exit 1; }
python3 tools/symbolize.py "$out/sampler_fig4.txt" --top 5

# Every function defined in a src/ .cc file must be run by the smoke
# benches or the examples, or be allowlisted in tools/coverage_allowlist.txt
# with the test that covers it; a .cc file no binary links counts as unrun.
echo "==> coverage gate (coverage preset: smoke benches + examples, gcov per function)"
python3 tools/check_coverage.py

echo "==> checked-in bench result files must parse and summarize"
python3 tools/bench_report.py

echo "==> repository benchmark smoke: every workload must report correct and its pinned digest"
# The benchmark driver builds perfbench/driver.cc against src/, so a src/
# API change that breaks it fails here rather than in a benchmark run.
# Each workload's seed-1 digest (a hash of its simulated outputs) is pinned
# in tests/golden/perfbench_digests.txt, so a host-side speed-up that moves
# a simulated output fails here; a deliberate model change updates the
# file with the digests the runs print.
for workload in n1_ckpt_restart nn_create_storm cb_kernel_tor; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 \
    >"$out/perfbench_$workload.txt"
  grep -q '"correct": true' "$out/perfbench_$workload.txt" \
    || { echo "benchmark workload $workload not correct"; cat "$out/perfbench_$workload.txt"; exit 1; }
  pinned=$(awk -v w="$workload" '$1 == w { print $2 }' tests/golden/perfbench_digests.txt)
  got=$(sed -n 's/^#.* digest=//p' "$out/perfbench_$workload.txt")
  [ -n "$pinned" ] && [ "$got" = "$pinned" ] \
    || { echo "benchmark workload $workload digest $got, pinned ${pinned:-none}"; exit 1; }
done

echo "==> ci.sh: all green"
