// Sweep-engine wall-clock benchmark, run on the Figure 2 workload
// (4 m-values × the 9-point paper TIDS grid = 36 points, one structural
// configuration).  Measures, in the same process:
//   * the naive per-point path — fresh exploration + one full-state
//     reward pass per cost component (GcsSpnModel::evaluate_reference,
//     the pre-engine code path), and
//   * the engine at batch width 1 — explore once, then the one
//     evaluation pipeline (re-rate → solve → reward pass) one point per
//     batch, and at the spec's batch width,
//   * the service path — the same declarative spec every other consumer
//     runs, answered by the Analytic backend's batched solve
//     (point-major kernels + arena scratch + factor reuse),
// checks all of them agree to 1e-12 relative on every reported metric,
// gates the batched path's speedup over width 1 (what batching alone
// buys), and writes BENCH_sweep.json so the perf trajectory is tracked
// PR-on-PR.  The JSON keeps its historical key names: "scalar_seconds"
// is the width-1 pass.
//
// `--smoke` shrinks the population for CI (seconds instead of minutes).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/gcs_spn_model.h"
#include "core/optimizer.h"
#include "util/stopwatch.h"

namespace {

using namespace midas;

double rel_diff(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

double max_eval_diff(const core::Evaluation& a, const core::Evaluation& b) {
  double d = 0.0;
  const auto acc = [&](double x, double y) { d = std::max(d, rel_diff(x, y)); };
  acc(a.mttsf, b.mttsf);
  acc(a.ctotal, b.ctotal);
  acc(a.cost_rates.group_comm, b.cost_rates.group_comm);
  acc(a.cost_rates.status, b.cost_rates.status);
  acc(a.cost_rates.rekey, b.cost_rates.rekey);
  acc(a.cost_rates.ids, b.cost_rates.ids);
  acc(a.cost_rates.beacon, b.cost_rates.beacon);
  acc(a.cost_rates.partition_merge, b.cost_rates.partition_merge);
  acc(a.eviction_cost_rate, b.eviction_cost_rate);
  acc(a.p_failure_c1, b.p_failure_c1);
  acc(a.p_failure_c2, b.p_failure_c2);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::print_header(
      "Sweep engine: Figure 2 workload, naive vs batched",
      "explore-once + single-pass rewards >= 5x over per-point "
      "re-exploration, metrics equal to 1e-12");

  // The Figure 2 design slice as a declarative spec (population shrunk
  // in smoke mode so CI finishes in seconds).
  core::ExperimentSpec spec = core::experiment_preset("fig2", smoke);
  spec.name = "fig2_sweep";
  if (smoke) spec.base.n_init = 20;
  const auto grid_spec = spec.grid();
  const auto points = grid_spec.expand(spec.base);
  const auto grid = core::paper_t_ids_grid();

  // Naive per-point path: what every figure bench did before the engine.
  std::vector<core::Evaluation> naive;
  naive.reserve(points.size());
  const util::Stopwatch naive_watch;
  for (const auto& p : points) {
    naive.push_back(core::GcsSpnModel(p).evaluate_reference());
  }
  const double naive_seconds = naive_watch.seconds();

  // Width 1 vs the batch width on a WARM structure cache: both share
  // the one-off exploration, so repeated evaluate() passes isolate the
  // per-point pipeline (rates → solve → rewards) and what batching
  // points through it saves.  One worker thread
  // times both paths the same way: a smoke pass lasts ~1 ms, the
  // batched path has only a handful of batches to spread over the
  // pool, and on a shared 4-core host a multithreaded pass mostly
  // measures thread wake-up and whatever load the preceding CI steps
  // left behind, not the per-point solve work the ratio is about.
  core::SweepEngine timing_engine(1);
  (void)timing_engine.evaluate(points, 1);  // pay the exploration once
  (void)timing_engine.evaluate(points, spec.analytic.batch);
  // Alternate the two modes and keep each one's fastest pass: back-to-
  // back rep blocks would fold machine drift into the ratio, and min-
  // of-reps is the standard estimator for the undisturbed runtime.  A
  // smoke pass lasts ~1 ms, so one scheduler hiccup can cover a whole
  // pass: 25 of them (~50 ms) give each width an undisturbed one.
  const std::size_t reps = smoke ? 25 : 4;
  std::vector<core::Evaluation> width1_evals;
  std::vector<core::Evaluation> batch_evals;
  double width1_seconds = 0.0;
  double batch_seconds = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    {
      const util::Stopwatch watch;
      width1_evals = timing_engine.evaluate(points, 1);
      const double s = watch.seconds();
      width1_seconds = r == 0 ? s : std::min(width1_seconds, s);
    }
    {
      const util::Stopwatch watch;
      batch_evals = timing_engine.evaluate(points, spec.analytic.batch);
      const double s = watch.seconds();
      batch_seconds = r == 0 ? s : std::min(batch_seconds, s);
    }
  }

  // Service path (fresh service: the exploration is paid inside the run).
  core::ExperimentService service;
  const auto result = service.run(spec);
  const auto& evals = result.at(core::BackendKind::Analytic).evals;
  const auto& stats = service.sweep_engine().stats();
  const double engine_seconds = stats.seconds;

  double max_diff = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    max_diff = std::max(max_diff, max_eval_diff(naive[i], evals[i]));
    max_diff = std::max(max_diff, max_eval_diff(width1_evals[i], evals[i]));
    max_diff = std::max(max_diff, max_eval_diff(batch_evals[i], evals[i]));
  }

  const double speedup = naive_seconds / engine_seconds;
  const double batch_speedup = width1_seconds / batch_seconds;
  // Batching's end-to-end win over the same pipeline at width 1.  Full
  // scale must show the headline >= 2x; the smoke population's states
  // are small enough that fixed per-point costs (model construction)
  // eat part of it, so CI gates a lower floor there.
  const double min_batch_speedup = smoke ? 1.3 : 2.0;
  std::printf("points:           %zu  (%zu m-values x %zu-point grid)\n",
              points.size(), spec.axes[0].values.size(), grid.size());
  std::printf("states per point: %zu\n", evals.front().num_states);
  std::printf("naive path:       %.3f s  (%zu explorations)\n",
              naive_seconds, points.size());
  std::printf("width-1 engine:   %.3f s/pass  (warm cache, best of %zu, "
              "batch width 1)\n",
              width1_seconds, reps);
  std::printf("batched engine:   %.3f s/pass  (warm cache, best of %zu, "
              "batch width %zu)\n",
              batch_seconds, reps, spec.analytic.batch);
  std::printf("service path:     %.3f s  (%zu exploration(s), batch "
              "width %zu)\n",
              engine_seconds, stats.explorations, spec.analytic.batch);
  std::printf("speedup:          %.1fx vs naive, %.2fx vs width 1 "
              "(floor %.1fx -> %s)\n",
              speedup, batch_speedup, min_batch_speedup,
              batch_speedup >= min_batch_speedup ? "ok" : "FAIL");
  std::printf("max rel diff:     %.3e  (%s 1e-12)\n", max_diff,
              max_diff <= 1e-12 ? "<=" : "EXCEEDS");
  bench::print_engine_stats(service.sweep_engine());

  auto json = bench::artifact("fig2_sweep", smoke, points.size());
  json.set("grid_size", util::Json(static_cast<double>(grid.size())));
  json.set("naive_seconds", util::Json::number(naive_seconds));
  json.set("scalar_seconds", util::Json::number(width1_seconds));
  json.set("batch_seconds", util::Json::number(batch_seconds));
  json.set("engine_seconds", util::Json::number(engine_seconds));
  json.set("speedup", util::Json::number(speedup));
  json.set("batch_width",
           util::Json(static_cast<double>(spec.analytic.batch)));
  json.set("batch_speedup", util::Json::number(batch_speedup));
  json.set("explorations",
           util::Json(static_cast<double>(stats.explorations)));
  json.set("states_evaluated",
           util::Json(static_cast<double>(stats.states_evaluated)));
  json.set("states_per_second",
           util::Json::number(
               static_cast<double>(stats.states_evaluated) / engine_seconds));
  json.set("points_per_second",
           util::Json::number(
               static_cast<double>(points.size()) / engine_seconds));
  json.set("max_rel_diff", util::Json::number(max_diff));
  bench::write_artifact(json, "BENCH_sweep.json");

  // Non-zero exit on disagreement (broken re-rate or batch path) or a
  // batch-speedup regression so CI catches both.
  return max_diff <= 1e-12 && batch_speedup >= min_batch_speedup ? 0 : 1;
}
