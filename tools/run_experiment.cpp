// One-shot driver of the declarative experiment API: executes a JSON
// ExperimentSpec end-to-end through core::ExperimentService and writes
// the unified result file.  This is the CLI face of the service — the
// same spec document a sweep_shard fleet splits up runs here as one
// process, and a future network-facing service would accept unchanged.
//
//   run_experiment --spec fig2.json --out result.json
//   run_experiment --preset fig2_val --smoke 1 --spec-out fig2.json
//
// CI gates ride along:
//   --round-trip-check 1   re-serialise the parsed spec and fail unless
//                          it reproduces the input file byte-for-byte
//                          (the wire format must be canonical);
//   --parity-check 1       cross-check the answer: the analytic solve
//                          against the independent per-point reference
//                          (GcsSpnModel::evaluate_reference, to
//                          --tolerance) — for a phased spec, the mission
//                          chain run with identical phases at the spec's
//                          boundaries against the reference of its first
//                          segment — a re-parsed spec rerun and an
//                          identity-schedule rerun byte-for-byte, the
//                          DES payload with spec.mc.vr stripped, and the
//                          protocol payload against a bare
//                          MonteCarloEngine::run_protocol (bitwise).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check_common.h"
#include "core/experiment.h"
#include "core/experiment_presets.h"
#include "core/gcs_spn_model.h"
#include "core/mission.h"
#include "sim/protocol_sim.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace midas;
using tools::eval_rel_diff;
using tools::mc_bitwise_equal;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("run_experiment: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Per-point report table honouring the spec's requested metrics.
void print_points(const core::ExperimentSpec& spec,
                  const core::GridSpec& grid,
                  const core::ExperimentResult& result) {
  const auto wants_metric = [&](const char* m) {
    return spec.metrics.empty() ||
           std::find(spec.metrics.begin(), spec.metrics.end(), m) !=
               spec.metrics.end();
  };
  const auto* analytic = result.find(core::BackendKind::Analytic);
  const auto* sim_run = result.find(core::BackendKind::Des);
  if (sim_run == nullptr) {
    sim_run = result.find(core::BackendKind::ProtocolSim);
  }

  std::vector<std::string> header{"point"};
  if (analytic != nullptr && wants_metric("mttsf")) header.push_back("MTTSF");
  if (analytic != nullptr && wants_metric("ctotal")) {
    header.push_back("Ctotal");
  }
  if (sim_run != nullptr && wants_metric("mttsf")) {
    header.push_back("TTSF sim (95% CI)");
    header.push_back("reps");
  }
  util::Table table(header);
  for (std::size_t i = 0; i < result.range.size(); ++i) {
    std::vector<std::string> row{grid.label(result.range.begin + i)};
    if (analytic != nullptr && wants_metric("mttsf")) {
      row.push_back(util::Table::sci(analytic->evals[i].mttsf));
    }
    if (analytic != nullptr && wants_metric("ctotal")) {
      row.push_back(util::Table::sci(analytic->evals[i].ctotal));
    }
    if (sim_run != nullptr && wants_metric("mttsf")) {
      row.push_back(util::Table::sci(sim_run->mc[i].ttsf.mean) + " ± " +
                    util::Table::sci(sim_run->mc[i].ttsf.ci_half_width, 1));
      row.push_back(std::to_string(sim_run->mc[i].replications));
    }
    table.add_row(row);
  }
  table.print(std::cout);
}

/// Re-answers the spec through independent reruns and gates equality.
bool parity_check(const core::ExperimentSpec& spec,
                  const core::GridSpec& grid,
                  const core::ExperimentResult& result, double tolerance) {
  bool ok = true;
  if (const auto* run = result.find(core::BackendKind::Analytic)) {
    // The reference path shares neither the batched kernels nor the
    // reward pass: a fresh exploration, the scalar solve and one reward
    // pass per cost component, per point.  A constant point's answer is
    // compared with it directly.  A phased answer has no closed-form
    // oracle, so its chain is checked instead: the first segment's
    // constant params, split by all-inherit phases at the spec's own
    // boundaries, must chain back to that segment's reference (the
    // θ-step trapezoid telescopes, spn/reliability_ode.h).
    const bool phased = core::resolve_timeline(spec.base).size() > 1;
    double max_diff = 0.0;
    for (std::size_t i = 0; i < run->evals.size(); ++i) {
      const auto timeline =
          core::resolve_timeline(grid.point(spec.base, result.range.begin + i));
      const core::Params& constant = timeline.front().params;
      const auto reference = core::GcsSpnModel(constant).evaluate_reference();
      if (!phased) {
        max_diff = std::max(max_diff, eval_rel_diff(run->evals[i], reference));
        continue;
      }
      core::Params chained = constant;
      for (std::size_t k = 0; k < timeline.size(); ++k) {
        core::MissionPhase phase;  // inherits every field
        phase.name = timeline[k].label;
        if (k + 1 < timeline.size()) {
          phase.duration_s = timeline[k + 1].start_s - timeline[k].start_s;
        }
        chained.mission.phases.push_back(phase);
      }
      max_diff = std::max(
          max_diff,
          eval_rel_diff(core::MissionAnalyzer(chained).evaluate(), reference));
    }
    std::printf("%smax rel diff %.3e (tolerance %.0e) -> %s\n",
                phased ? "parity analytic (identical-phase chain):   "
                       : "parity analytic (per-point reference):     ",
                max_diff, tolerance, max_diff <= tolerance ? "ok" : "FAIL");
    ok = ok && max_diff <= tolerance;
  }
  {
    // Plugin-path parity: the detector/attacker model descriptors must
    // survive the wire unchanged.  Round-trip the spec through its JSON
    // form, answer the re-parsed spec with a FRESH service (no shared
    // caches), and byte-compare the canonical result forms — any codec
    // drift in a model field would change the answer and fail here.
    const auto reparsed =
        core::ExperimentSpec::from_json(util::Json::parse(spec.to_json().dump()));
    core::ExperimentService fresh;
    const auto rerun = fresh.run(reparsed);
    const bool same = rerun.canonical_json().dump() ==
                      result.canonical_json().dump();
    std::printf("parity plugin path (re-parsed spec rerun): canonical %s "
                "-> %s\n",
                same ? "bytes equal" : "BYTES DIFFER", same ? "ok" : "FAIL");
    ok = ok && same;
  }
  if (!spec.base.time_varying()) {
    // Constant-schedule parity: an identity one-segment schedule is the
    // SAME model (×1.0 is IEEE-exact, one timeline segment resolves),
    // so attaching it must leave every backend payload byte-identical.
    // The vr block is stripped from both sides first — cv validation
    // (correctly) refuses schedules, and vr-neutrality has its own gate
    // below.
    core::ExperimentSpec scheduled = spec;
    core::ScheduleSegment seg;  // identity multipliers, runs forever
    seg.name = "constant";
    scheduled.base.schedule.segments = {seg};
    scheduled.vr = vr::VrOptions{};
    core::ExperimentResult reference = result;
    for (auto& run : reference.backends) run.vr.clear();
    core::ExperimentService fresh;
    const auto rerun = fresh.run(scheduled);
    const bool same =
        rerun.canonical_json().at("backends").dump() ==
        reference.canonical_json().at("backends").dump();
    std::printf("parity constant schedule (identity rerun): backends %s "
                "-> %s\n",
                same ? "bytes equal" : "BYTES DIFFER", same ? "ok" : "FAIL");
    ok = ok && same;
  } else {
    std::printf("parity constant schedule:                  skipped — the "
                "spec is already time-varying\n");
  }
  if (spec.vr.any()) {
    // VR-neutrality parity: the vr estimators ride ALONGSIDE the plain
    // replication pass in their own tagged seed domains, so stripping
    // spec.mc.vr and re-answering must reproduce the DES mc payload
    // bitwise — enabling variance reduction can never change the plain
    // estimates it is compared against.
    core::ExperimentSpec plain = spec;
    plain.vr = vr::VrOptions{};
    core::ExperimentService fresh;
    const auto rerun = fresh.run(plain);
    const auto* with_vr = result.find(core::BackendKind::Des);
    const auto* without = rerun.find(core::BackendKind::Des);
    bool same = with_vr != nullptr && without != nullptr &&
                with_vr->mc.size() == without->mc.size() &&
                !with_vr->vr.empty() && without->vr.empty();
    if (same) {
      for (std::size_t i = 0; i < with_vr->mc.size(); ++i) {
        if (!mc_bitwise_equal(with_vr->mc[i], without->mc[i])) {
          same = false;
          break;
        }
      }
    }
    std::printf("parity vr-neutral (spec.mc.vr stripped):   DES mc payload "
                "%s -> %s\n",
                same ? "bitwise equal" : "DIFFERS", same ? "ok" : "FAIL");
    ok = ok && same;
  }
  if (const auto* run = result.find(core::BackendKind::ProtocolSim)) {
    std::vector<sim::ProtocolSimParams> points;
    for (std::size_t i = result.range.begin; i < result.range.end; ++i) {
      sim::ProtocolSimParams q;
      q.model = grid.point(spec.base, i);
      q.mobility = spec.protocol.mobility;
      q.radio_range_m = spec.protocol.radio_range_m;
      q.tick_s = spec.protocol.tick_s;
      q.topology_refresh_s = spec.protocol.topology_refresh_s;
      q.max_time_s = spec.protocol.max_time_s;
      points.push_back(std::move(q));
    }
    sim::McOptions mc = spec.mc;
    mc.point_stream_offset += result.range.begin;
    sim::MonteCarloEngine engine(mc);
    const auto bare = engine.run_protocol(points);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < run->mc.size(); ++i) {
      if (!mc_bitwise_equal(run->mc[i], bare[i])) ++mismatches;
    }
    std::printf("parity protocol (MonteCarloEngine):        %zu/%zu points "
                "bitwise -> %s\n",
                run->mc.size() - mismatches, run->mc.size(),
                mismatches == 0 ? "ok" : "FAIL");
    ok = ok && mismatches == 0;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("run_experiment",
                "execute a declarative experiment spec (JSON) through "
                "core::ExperimentService");
  cli.flag("spec", std::string(""), "spec JSON file to execute");
  cli.flag("preset", std::string(""),
           "named preset instead of --spec (see --list-presets)");
  cli.flag("list-presets", 0, "print the preset names and exit (0|1)");
  cli.flag("smoke", 0, "build the preset in smoke mode (0|1)");
  cli.flag("spec-out", std::string(""),
           "write the (preset) spec JSON here — with --spec, write the "
           "canonical re-serialisation");
  cli.flag("out", std::string(""), "result JSON output path");
  cli.flag("threads", 0, "worker threads (0 = hardware concurrency)");
  cli.flag("round-trip-check", 0,
           "fail unless the parsed spec re-serialises to the input file "
           "byte-for-byte (0|1)");
  cli.flag("parity-check", 0,
           "cross-check the answer against per-point reference (for a "
           "phased spec, an identical-phase mission chain), re-parsed, "
           "identity-schedule, vr-stripped and bare-engine reruns (0|1)");
  cli.flag("tolerance", 1e-12,
           "max relative difference between the analytic answer (or the "
           "identical-phase chain) and the per-point reference "
           "(GcsSpnModel::evaluate_reference) tolerated by --parity-check");

  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.get_int("list-presets") != 0) {
      for (const auto& name : core::experiment_preset_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }

    const std::string spec_path = cli.get_string("spec");
    const std::string preset = cli.get_string("preset");
    if (spec_path.empty() == preset.empty()) {
      std::fprintf(stderr,
                   "run_experiment: exactly one of --spec or --preset is "
                   "required\n");
      return 1;
    }

    core::ExperimentSpec spec;
    if (!spec_path.empty()) {
      const std::string text = read_file(spec_path);
      spec = core::ExperimentSpec::from_json(util::Json::parse(text));
      if (cli.get_int("round-trip-check") != 0) {
        const std::string canonical = spec.to_json().dump();
        if (canonical != text) {
          std::fprintf(stderr,
                       "run_experiment: %s is not canonical — the parsed "
                       "spec re-serialises differently (use --spec-out to "
                       "write the canonical form)\n",
                       spec_path.c_str());
          return 1;
        }
        std::printf("round-trip check: %s is byte-for-byte canonical\n",
                    spec_path.c_str());
      }
    } else {
      spec = core::experiment_preset(preset, cli.get_int("smoke") != 0);
    }

    const std::string spec_out = cli.get_string("spec-out");
    if (!spec_out.empty()) {
      util::write_json_file(spec_out, spec.to_json());
      std::printf("spec written: %s\n", spec_out.c_str());
      if (spec_path.empty() && cli.get_string("out").empty() &&
          cli.get_int("parity-check") == 0) {
        return 0;  // emit-only invocation
      }
    }

    core::ExperimentServiceOptions opts;
    opts.threads = static_cast<std::size_t>(cli.get_int("threads"));
    core::ExperimentService service(opts);
    const core::GridSpec grid = spec.grid();

    std::string backend_names;
    for (const auto kind : spec.backends) {
      backend_names += (backend_names.empty() ? "" : ", ") + to_string(kind);
    }
    std::printf("run_experiment: %s (%s), %zu grid point(s), backends: %s\n",
                spec.name.c_str(), spec.mode.c_str(), grid.num_points(),
                backend_names.c_str());

    const util::Stopwatch watch;
    const auto result = service.run(spec);
    std::printf("evaluated points [%zu, %zu) in %.2f s\n\n",
                result.range.begin, result.range.end, watch.seconds());
    print_points(spec, grid, result);

    bool ok = true;
    if (cli.get_int("parity-check") != 0) {
      std::printf("\n");
      ok = parity_check(spec, grid, result, cli.get_double("tolerance"));
    }

    const std::string out = cli.get_string("out");
    if (!out.empty()) {
      util::write_json_file(out, result.to_json());
      std::printf("\nresult written: %s\n", out.c_str());
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_experiment: %s\n", e.what());
    return 1;
  }
}
