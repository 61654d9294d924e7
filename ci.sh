#!/usr/bin/env bash
# CI entry point: tier-1 verify (build + full gtest suite via ctest),
# the end-to-end benchmark's build and self-test, every example
# program, the declarative experiment-API gates (spec
# round-trip + parity cross-checks via run_experiment), the
# sweep-engine equivalence/speedup bench, the Monte-Carlo engine bench,
# the sharded sweep demo (contiguous AND pilot-cost-balanced splits),
# the figure/ablation grid benches (all in smoke mode), the micro
# benches with a minimal measurement budget, and the UBSan, ASan+LSan
# and TSan test builds.
# Leaves the BENCH_*.json artifacts in build/ for the workflow to
# archive.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 2)"

# --- Tier-1 verify ---------------------------------------------------------
cmake -B build -S .
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

# --- End-to-end benchmark self-test: builds perfbench/ (which compiles
# this checkout's src/) into .bench_build/ and runs its own checks, so a
# library API change that breaks the benchmark's replay fails CI.  ~2 s
# once built.
python3 perfbench/run.py --self-test

# --- Plan-vs-hook gate on fresh points: one traced analytic_sweep run.
# The service answers through core::StructurePlan; the traced replay
# re-rates the same requests through GcsSpnModel::batch_rate_fn and
# must reproduce the service's canonical bytes (5,760 points, fresh
# TIDS draws).  perfbench_e2e exits 0 even when an answer is wrong, so
# the gate reads the result line: "correct": true and "failed": 0.
# ~21 s.
plan_gate="$(python3 perfbench/run.py --workload analytic_sweep --seed 1 \
  --seconds 1 --trace 1 | tail -n 1)"
python3 - "${plan_gate}" <<'PY'
import json
import sys

result = json.loads(sys.argv[1])
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("plan-vs-hook gate: analytic_sweep traced run reported "
             f"correct={result.get('correct')} failed={result.get('failed')}")
print("plan-vs-hook gate: correct, 0 failed")
PY

# --- Examples: every user-facing walkthrough (build/example_*) must run
# to completion; a non-zero exit fails CI.  A few seconds in total.
for ex in build/example_*; do
  (cd build && "./$(basename "${ex}")")
done

# --- Experiment-API gate: emit the fig2 validation spec as a JSON
# file, execute it end-to-end through run_experiment, and require
#   * the spec file to round-trip BYTE-FOR-BYTE through parse +
#     re-serialisation (the wire format must be canonical),
#   * the batched analytic answer to match the independent per-point
#     reference (GcsSpnModel::evaluate_reference: fresh exploration,
#     scalar solve, one reward pass per cost component) within 1e-12
#     (in practice exactly), and
#   * a re-parsed-spec rerun and an identity-schedule rerun to
#     reproduce the canonical result bytes.
# Non-zero exit on any divergence.
(
  cd build
  ./run_experiment --preset fig2_val --smoke 1 --spec-out fig2_spec.json
  ./run_experiment --spec fig2_spec.json --round-trip-check 1 \
                   --parity-check 1 --out fig2_experiment.json
)

# --- Scenario-model gate: the pluggable detector/attacker grids run
# end-to-end from their spec files.  The plugin-path check gates that a
# re-parsed spec reruns to CANONICALLY IDENTICAL bytes, and
# --round-trip-check that the model descriptors serialise canonically;
# presets with a constant-model analytic backend also get the per-point
# reference cross-check, and protocol presets the bare-engine rerun.
# The phased presets (mission_phased, attacker_surge) get the
# identical-phase chain check instead: each point's first-segment
# params, split into all-inherit phases at the spec's boundaries, must
# chain through MissionAnalyzer back to the per-point reference within
# 1e-12.  rare_event additionally exercises
# the spec.mc.vr round-trip and the vr-neutral parity gate (stripping
# the vr block must leave the DES mc payload bitwise), val_protocol_ci
# the CI-targeted pair-averaged stopping on the protocol backend.
for preset in detector_matrix attacker_matrix_v2 mission_phased \
              attacker_surge rare_event val_protocol_ci; do
  (
    cd build
    ./run_experiment --preset "${preset}" --smoke 1 \
                     --spec-out "${preset}_spec.json"
    ./run_experiment --spec "${preset}_spec.json" --round-trip-check 1 \
                     --parity-check 1 --out "${preset}_experiment.json"
  )
done

# --- Sweep-engine smoke: exits non-zero if the cached-rate path diverges
# from fresh per-point exploration, and records BENCH_sweep.json.
(cd build && ./bench_sweep --smoke)

# --- Monte-Carlo engine smoke: exits non-zero if the batched path loses
# its >= 3x speedup at equal CI width, the analytic values fall outside
# the simulation CIs, CRN stops reducing contrast variance, or the
# antithetic pairs stop beating plain CRN.  Records BENCH_mc.json.
(cd build && ./bench_mc --smoke)

# --- Sharded sweep service demo: two sweep_shard WORKER PROCESSES split
# each paper spec (concurrently — this is the multi-process path, not a
# thread demo), then sweep_merge recombines the experiment-result files,
# reports the cross-shard optima AND the achieved load balance, and
# gates the merge against a fresh single-process service run: analytic
# values within 1e-12 and Monte-Carlo accumulator states bitwise
# identical.  Non-zero exit on any divergence.  fig2 exercises the
# replication-balanced --policy by-pilot-cost split (every worker
# derives the identical plan from a deterministic pilot block), fig4 the
# plain contiguous split.  Records BENCH_shard_merge_fig2.json /
# BENCH_shard_merge_fig4.json (including per-shard seconds and the
# slowest/fastest ratio).
run_shard_demo() {
  local plan="$1" policy="$2"
  (
    cd build
    ./sweep_shard --plan "${plan}" --shards 2 --shard 0 --smoke 1 \
                  --policy "${policy}" --out "shard_0_${plan}.json" &
    local SHARD0=$!
    ./sweep_shard --plan "${plan}" --shards 2 --shard 1 --smoke 1 \
                  --policy "${policy}" --out "shard_1_${plan}.json" &
    local SHARD1=$!
    # Two waits: `wait p0 p1` would report only p1's status.
    wait "${SHARD0}"
    wait "${SHARD1}"
    ./sweep_merge --inputs "shard_0_${plan}.json,shard_1_${plan}.json" \
                  --check 1 --json-out "BENCH_shard_merge_${plan}.json"
  )
}
run_shard_demo fig2 by-pilot-cost
run_shard_demo fig4 contiguous

# --- Fault-tolerant fleet soak: a coordinator drives FOUR fleet_worker
# processes through the fig2 validation spec over loopback TCP while a
# fault plan kills two of them mid-run (one crashes while computing a
# shard, one after computing but before sending the result).  The gate
# requires (a) both scheduled kills actually fired, (b) the coordinator
# detected the deaths and reassigned the orphaned leases, and (c) the
# merged ExperimentResult is BYTE-IDENTICAL (canonical JSON, wall-clock
# timings zeroed) to a crash-free single-process run_experiment answer.
# Records BENCH_fleet_soak.json (recovery latency, reassignments,
# duplicates dropped).
(
  cd build
  ./fleet_soak --preset fig2_val --smoke 1 --workers 4 --clients 2 \
               --faults "crash_mid_shard=1;crash_before_result=1" \
               --out BENCH_fleet_soak.json
)

# --- Figure/ablation grid benches, smoke mode: every figure runs as a
# core::GridSpec batch and validates each grid point against a
# CI-bounded Monte-Carlo interval (CRN + antithetic).  Non-zero exit if
# the analytic values leave the simulation CIs.  Records
# BENCH_fig*.json / BENCH_abl*.json.
for b in fig2_mttsf_vs_m fig3_cost_vs_m fig4_mttsf_vs_detection \
         fig5_cost_vs_detection abl_attacker_matrix abl_sensitivity \
         val_protocol_sim ext_mission_reliability; do
  (cd build && "./${b}" --smoke)
done

# --- Phased-mission gate: constant schedules/missions must reproduce
# the no-schedule canonical backend payloads BYTE-FOR-BYTE, the chained
# analytic R(t)/MTTSF must sit inside the DES confidence intervals on
# the 3-phase mission_phased preset at paper N=100, and the λc×4
# attacker_surge schedule must agree across all three backends.
# Non-zero exit on any gate flip.  Records BENCH_mission.json.
(cd build && ./bench_mission --smoke)

# --- Variance-reduction gate: the rare_event preset through the vr
# subsystem.  Non-zero exit if the sobol/cv/splitting payloads stop
# being bitwise identical across 1/2/4 worker threads, if the TTSF
# control variate's work-normalised efficiency drops below 5x at the
# hot-λq corner, if the multilevel-splitting estimate leaves 2x its CI
# around the analytic p_failure_c2 ~ 3e-6 tail, or if the plain pass
# stops flagging its zero-C2 failure proportion one-sided.  Records
# BENCH_vr.json.
(cd build && ./bench_vr --smoke)

# --- Scenario-model bench: every pluggable detector and attacker model
# as its own experiment — per-scenario wall clock, convergence at the
# preset CI target, and (for the analytic-compatible scenarios:
# static/entropy detectors, poisson attacker) the SPN answer inside the
# DES 95% CI.  Non-zero exit on any gate flip.  Records
# BENCH_scenarios.json.
(cd build && ./bench_scenarios --smoke)

# --- Batched-solver kernel bench: standalone (always built), so it runs
# unconditionally.  Exits non-zero if the batched solve falls below its
# per-profile kernel speedup floor, if reuse-off stops being bitwise the
# one-lane solve() (the same substitution kernel, so a lane must not
# depend on its neighbours), if reuse-on leaves 1e-12, or if factor
# reuse stops sharing factorisations on the identical-point profile.
# The kernel's independent bitwise reference is the scalar pass in
# tests/oracle (SolverBatch.*).  Records BENCH_solver.json.
(cd build && ./micro_solver --smoke)

# --- Micro benches, smoke budget (skipped when Google Benchmark absent).
for b in micro_voting; do
  if [ -x "build/${b}" ]; then
    (cd build && "./${b}" --benchmark_min_time=0.01)
  fi
done

# --- UBSan build-and-test: the batched kernels lean on pointer/span
# arithmetic over arena scratch, so rebuild the library + test suite
# with UndefinedBehaviorSanitizer (non-recoverable: any finding aborts)
# and run the full gtest binary once.  GCC leaves float-cast-overflow
# out of -fsanitize=undefined; it is named explicitly so an out-of-range
# double→integer cast (a hostile spec value reaching a static_cast)
# aborts too.  Only the midas_tests target is built — the bench/tool
# executables are covered by the plain build.
cmake -B build-ubsan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=undefined,float-cast-overflow -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined,float-cast-overflow"
cmake --build build-ubsan -j"${JOBS}" --target midas_tests
./build-ubsan/midas_tests

# --- ASan+LSan build-and-test: out-of-bounds spans over arena scratch,
# use-after-free across the fleet's lease/transport lifetimes, and
# leaks all abort the run (LeakSanitizer is on by default with ASan).
# The full gtest binary runs once.
cmake -B build-asan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
cmake --build build-asan -j"${JOBS}" --target midas_tests
./build-asan/midas_tests

# --- TSan build-and-test: the suites that run work on several threads
# — the in-memory fleet and its lease table, the Monte-Carlo engine,
# voting-table construction, the DES (every Monte-Carlo worker reads one
# DesContext rate table at once), the sweep engine and batched solver at
# several thread counts, the mission chain (the engine's workers run
# MissionAnalyzers on one shared structure cache; Mission.Service* and
# SweepEngine.PhasedGrid* go through the service), and the vr
# thread-count invariance test.  Any
# report fails the run (halt_on_error), so a shared global written from
# worker threads (like glibc's signgam behind std::lgamma) cannot
# creep back in.
cmake -B build-tsan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j"${JOBS}" --target midas_tests
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/midas_tests \
  --gtest_filter='Fleet.*:LeaseTable.*:McEngine.*:Voting*.*:Des*.*:SweepEngine.*:SolverBatch.*:Mission.*:GridRun.BitwiseIdenticalAcrossThreadCounts:VrEngine.PayloadsAreBitwiseAcrossThreadCounts'

echo "ci.sh: all checks passed"
