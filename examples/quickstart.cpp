// Quickstart: build the paper's GCS+IDS model at the Section 5 default
// parameters, solve it, sweep the detection interval to find the
// optimal TIDS — the paper's headline exercise — then cross-validate the
// optimum by CI-bounded Monte-Carlo simulation and answer a
// multi-dimensional (m × TIDS) design grid analytically + by simulation,
// both as declarative ExperimentSpecs run through
// core::ExperimentService (the JSON-serialisable API every bench and
// tool speaks), all in ~120 lines.
#include <cstdio>
#include <iostream>

#include "core/experiment.h"
#include "core/gcs_spn_model.h"
#include "core/optimizer.h"
#include "util/table.h"

int main() {
  using namespace midas;

  // 1. Paper defaults: N=100, λq=1/min, λc=1/12hr, m=5, p1=p2=1%,
  //    linear attacker, linear detection.
  core::Params params = core::Params::paper_defaults();

  // 2. Solve a single design point (TIDS = 120 s).
  params.t_ids = 120.0;
  const core::GcsSpnModel model(params);
  const auto eval = model.evaluate();
  std::printf("single point: TIDS = %.0f s\n", params.t_ids);
  std::printf("  MTTSF        = %.4e s  (%.1f days)\n", eval.mttsf,
              eval.mttsf / 86400.0);
  std::printf("  Ctotal       = %.4e hop-bits/s\n", eval.ctotal);
  std::printf("  P[C1 leak]   = %.3f   P[C2 byzantine] = %.3f\n",
              eval.p_failure_c1, eval.p_failure_c2);
  std::printf("  states       = %zu\n\n", eval.num_states);

  // 3. Sweep the paper's TIDS grid and report the optima.
  const auto grid = core::paper_t_ids_grid();
  const auto sweep = core::sweep_t_ids(params, grid);

  util::Table table({"TIDS(s)", "MTTSF(s)", "Ctotal(hop-bits/s)", "P[C1]"});
  for (const auto& pt : sweep.points) {
    table.add_row({util::Table::fix(pt.t_ids, 0),
                   util::Table::sci(pt.eval.mttsf),
                   util::Table::sci(pt.eval.ctotal),
                   util::Table::fix(pt.eval.p_failure_c1, 3)});
  }
  table.print(std::cout);

  std::printf("\noptimal TIDS for MTTSF : %.0f s (MTTSF = %.3e s)\n",
              sweep.best_mttsf().t_ids, sweep.best_mttsf().eval.mttsf);
  std::printf("optimal TIDS for Ctotal: %.0f s (Ctotal = %.3e)\n",
              sweep.best_ctotal().t_ids, sweep.best_ctotal().eval.ctotal);

  // 4. Validate the optimum by simulation: a one-point ExperimentSpec
  //    answered by core::ExperimentService analytically AND by
  //    CRN-batched Monte-Carlo with CI-targeted stopping, from one call.
  core::ExperimentService service;
  core::ExperimentSpec check;
  check.name = "quickstart_check";
  check.base = params;
  check.base.t_ids = sweep.best_mttsf().t_ids;
  check.backends = {core::BackendKind::Analytic, core::BackendKind::Des};
  check.mc.rel_ci_target = 0.10;  // stop at a 10% relative 95% CI
  const auto validated = service.run(check);
  const auto& v_eval = validated.at(core::BackendKind::Analytic).evals[0];
  const auto& v_mc = validated.at(core::BackendKind::Des).mc[0];
  std::printf("\nsimulation check at TIDS = %.0f s: MTTSF = %.3e ± %.1e "
              "(%zu replications, analytic %s the 95%% CI)\n",
              check.base.t_ids, v_mc.ttsf.mean, v_mc.ttsf.ci_half_width,
              v_mc.replications,
              v_mc.ttsf.contains(v_eval.mttsf) ? "inside" : "OUTSIDE");

  // 5. The design space is multi-dimensional — answer a named-axis
  //    (m × TIDS) grid as ONE declarative experiment: a JSON-
  //    serialisable ExperimentSpec (base parameters, named axes,
  //    backend selection, Monte-Carlo schedule) answered by the same
  //    service — the API behind every figure bench, the run_experiment
  //    CLI and the sweep_shard/sweep_merge fleet.  One structure
  //    exploration serves every point; the Monte-Carlo substreams are
  //    keyed by replication only (CRN), with antithetic pairs layered
  //    on top, so contrasts along BOTH axes are variance-reduced.
  core::ExperimentSpec request;
  request.name = "quickstart";
  request.base = params;
  core::AxisSpec m_axis;
  m_axis.param = "num_voters";
  m_axis.values = {3, 9};
  core::AxisSpec t_axis;
  t_axis.param = "t_ids";
  t_axis.values = {60.0, 480.0};
  request.axes = {m_axis, t_axis};
  request.backends = {core::BackendKind::Analytic, core::BackendKind::Des};
  request.mc.rel_ci_target = 0.05;
  request.mc.antithetic = true;
  request.mc.base_seed = 0xFACADE;

  const auto result = service.run(request);
  const auto& evals = result.at(core::BackendKind::Analytic).evals;
  const auto& des = result.at(core::BackendKind::Des);
  std::printf("\ngrid run (m x TIDS), analytic vs simulation:\n");
  for (std::size_t i = 0; i < evals.size(); ++i) {
    std::printf("  %-22s MTTSF %.3e | sim %.3e ± %.1e (%s)\n",
                request.grid().label(i).c_str(), evals[i].mttsf,
                des.mc[i].ttsf.mean, des.mc[i].ttsf.ci_half_width,
                des.mc[i].ttsf.contains(evals[i].mttsf) ? "inside CI"
                                                        : "OUTSIDE CI");
  }
  std::printf("\nspec serialises to %zu bytes of JSON "
              "(ExperimentSpec::to_json) — try tools/run_experiment\n",
              request.to_json().dump().size());
  return 0;
}
