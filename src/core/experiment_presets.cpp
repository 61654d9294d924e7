#include "core/experiment_presets.h"

#include <stdexcept>

#include "core/optimizer.h"
#include "sim/protocol_sim.h"

namespace midas::core {

namespace {

std::vector<double> t_ids_axis(bool smoke) {
  return smoke ? std::vector<double>{15, 120, 1200} : paper_t_ids_grid();
}

AxisSpec t_ids_of(std::vector<double> values) {
  AxisSpec axis;
  axis.param = "t_ids";
  axis.values = std::move(values);
  return axis;
}

AxisSpec voters_axis() {
  AxisSpec axis;
  axis.param = "num_voters";
  axis.values = {3, 5, 7, 9};
  return axis;
}

AxisSpec shapes_axis(const std::string& param) {
  AxisSpec axis;
  axis.param = param;
  axis.levels = {"logarithmic", "linear", "polynomial"};
  return axis;
}

/// Monte-Carlo schedule of the figure validations: CRN + antithetic
/// pairs, CI-targeted stopping loosened in smoke mode.
sim::McOptions validation_mc(bool smoke) {
  sim::McOptions mc;
  mc.base_seed = 0xFACADE;
  mc.rel_ci_target = smoke ? 0.10 : 0.075;
  mc.antithetic = true;
  return mc;
}

ExperimentSpec named(const std::string& name, bool smoke) {
  ExperimentSpec spec;
  spec.name = name;
  spec.mode = smoke ? "smoke" : "full";
  spec.base = Params::paper_defaults();
  return spec;
}

}  // namespace

std::vector<std::string> experiment_preset_names() {
  return {"fig2",
          "fig2_val",
          "fig3",
          "fig3_val",
          "fig4",
          "fig4_val",
          "fig5",
          "fig5_val",
          "attacker_matrix",
          "attacker_matrix_val",
          "detector_matrix",
          "attacker_matrix_v2",
          "sensitivity_surface",
          "host_ids_quality",
          "val_des",
          "val_protocol",
          "val_protocol_ci",
          "rare_event",
          "mission",
          "mission_phased",
          "attacker_surge"};
}

ExperimentSpec experiment_preset(const std::string& name, bool smoke) {
  // --- Figure grids: the m × TIDS slice (figs 2/3) and the detection
  // shape × TIDS slice under a linear attacker (figs 4/5).  The "_val"
  // twins thin the TIDS axis in smoke mode and add the DES backend.
  if (name == "fig2" || name == "fig3" || name == "fig2_val" ||
      name == "fig3_val") {
    const bool val = name.size() > 4;
    ExperimentSpec spec = named(name, smoke);
    spec.axes = {voters_axis(), t_ids_of(val ? t_ids_axis(smoke)
                                             : paper_t_ids_grid())};
    if (val) {
      spec.backends = {BackendKind::Analytic, BackendKind::Des};
      spec.mc = validation_mc(smoke);
    }
    return spec;
  }
  if (name == "fig4" || name == "fig5" || name == "fig4_val" ||
      name == "fig5_val") {
    const bool val = name.size() > 4;
    ExperimentSpec spec = named(name, smoke);
    spec.base.attacker_shape = ids::Shape::Linear;
    spec.axes = {shapes_axis("detection_shape"),
                 t_ids_of(val ? t_ids_axis(smoke) : paper_t_ids_grid())};
    if (val) {
      spec.backends = {BackendKind::Analytic, BackendKind::Des};
      spec.mc = validation_mc(smoke);
    }
    return spec;
  }

  // --- Ablations.
  if (name == "attacker_matrix" || name == "attacker_matrix_val") {
    const bool val = name == "attacker_matrix_val";
    ExperimentSpec spec = named(name, smoke);
    spec.base.attacker_progress = AttackerProgress::CampaignProgress;
    spec.axes = {shapes_axis("attacker_shape"),
                 shapes_axis("detection_shape"),
                 t_ids_of(val ? (smoke ? std::vector<double>{120}
                                       : std::vector<double>{15, 120, 1200})
                              : paper_t_ids_grid())};
    if (val) {
      spec.backends = {BackendKind::Analytic, BackendKind::Des};
      spec.mc = validation_mc(smoke);
    }
    return spec;
  }
  if (name == "detector_matrix") {
    // Pluggable host-IDS error models × TIDS: the fig2-style curve
    // regenerated per detector scenario.  Cusum/logistic are
    // time-dependent, so the grid runs on the DES only (the analytic
    // SPN would reject those levels by name); DES-vs-analytic
    // cross-checks for the analytic-compatible levels live in
    // bench_scenarios.
    ExperimentSpec spec = named(name, smoke);
    AxisSpec detector;
    detector.param = "detector_model";
    detector.levels = {"static", "entropy", "cusum", "logistic"};
    spec.axes = {std::move(detector),
                 t_ids_of(smoke ? std::vector<double>{120}
                                : std::vector<double>{15, 120, 1200})};
    spec.backends = {BackendKind::Des};
    spec.mc = validation_mc(smoke);
    return spec;
  }
  if (name == "attacker_matrix_v2") {
    // Pluggable inter-compromise processes × TIDS (the model-kind
    // successor of attacker_matrix, which sweeps the A(mc) shape).
    // Bursty/coordinated leave the birth–death SPN, so DES-only —
    // same routing as detector_matrix.
    ExperimentSpec spec = named(name, smoke);
    AxisSpec attacker;
    attacker.param = "attacker_model";
    attacker.levels = {"poisson", "bursty", "coordinated"};
    spec.axes = {std::move(attacker),
                 t_ids_of(smoke ? std::vector<double>{120}
                                : std::vector<double>{15, 120, 1200})};
    spec.backends = {BackendKind::Des};
    spec.mc = validation_mc(smoke);
    return spec;
  }
  if (name == "sensitivity_surface") {
    ExperimentSpec spec = named(name, smoke);
    spec.base.t_ids = 120.0;
    const double lc0 = spec.base.lambda_c;
    AxisSpec lambda_c;
    lambda_c.param = "lambda_c";
    lambda_c.values = smoke ? std::vector<double>{0.5 * lc0, 2.0 * lc0}
                            : std::vector<double>{0.25 * lc0, 0.5 * lc0, lc0,
                                                  2.0 * lc0, 4.0 * lc0};
    spec.axes = {std::move(lambda_c),
                 t_ids_of(smoke ? std::vector<double>{30, 480}
                                : std::vector<double>{15, 60, 120, 480,
                                                      1200})};
    spec.backends = {BackendKind::Analytic, BackendKind::Des};
    spec.mc = validation_mc(smoke);
    return spec;
  }
  if (name == "host_ids_quality") {
    ExperimentSpec spec = named(name, smoke);
    AxisSpec perr;
    perr.param = "host_ids_error";
    perr.values = {0.001, 0.005, 0.01, 0.02, 0.05};
    spec.axes = {std::move(perr), t_ids_of(paper_t_ids_grid())};
    return spec;
  }

  // --- Validations + extensions.
  if (name == "val_des") {
    // Scaled-down population: exact distributional agreement, short
    // trajectories, each point stopped at a tight relative CI.
    ExperimentSpec spec = named(name, smoke);
    spec.base.n_init = 15;
    spec.base.max_groups = 1;
    spec.base.lambda_c = 1.0 / 2000.0;
    spec.axes = {t_ids_of({15.0, 60.0, 240.0, 1200.0})};
    spec.backends = {BackendKind::Analytic, BackendKind::Des};
    spec.mc.base_seed = 0xFACADE;
    spec.mc.rel_ci_target = smoke ? 0.075 : 0.05;
    return spec;
  }
  if (name == "val_protocol") {
    // The packet-level simulator probes the MODELLING assumptions, so
    // the comparison is trend-level on a fixed replication budget.
    ExperimentSpec spec = named(name, smoke);
    const auto defaults = sim::ProtocolSimParams::small_defaults();
    spec.base = defaults.model;
    spec.base.cost.mean_hops = 1.6;  // measured for this field/range
    spec.base.cost.sync_rekey_params();
    spec.axes = {t_ids_of({30.0, 120.0, 600.0})};
    spec.backends = {BackendKind::Analytic, BackendKind::ProtocolSim};
    spec.mc.base_seed = 0xCAFE;
    spec.mc.rel_ci_target = 0.0;
    spec.mc.min_replications = smoke ? 12 : 24;
    spec.mc.max_replications = spec.mc.min_replications;
    spec.mc.block = 4;
    spec.protocol.mobility = defaults.mobility;
    spec.protocol.radio_range_m = defaults.radio_range_m;
    spec.protocol.tick_s = defaults.tick_s;
    spec.protocol.topology_refresh_s = defaults.topology_refresh_s;
    spec.protocol.max_time_s = defaults.max_time_s;
    return spec;
  }
  if (name == "val_protocol_ci") {
    // val_protocol's grid under CI-TARGETED stopping instead of a fixed
    // budget: antithetic pairs are averaged into one sample each, and
    // the engine keeps adding pair blocks until every metric's 95%
    // interval is within ±10% of its mean (±15% in smoke mode).  A
    // separate preset so val_protocol's golden-pinned bytes never move.
    ExperimentSpec spec = named(name, smoke);
    const auto defaults = sim::ProtocolSimParams::small_defaults();
    spec.base = defaults.model;
    spec.base.cost.mean_hops = 1.6;  // measured for this field/range
    spec.base.cost.sync_rekey_params();
    spec.axes = {t_ids_of({30.0, 120.0, 600.0})};
    spec.backends = {BackendKind::Analytic, BackendKind::ProtocolSim};
    spec.mc.base_seed = 0xCAFE;
    spec.mc.antithetic = true;
    spec.mc.rel_ci_target = smoke ? 0.15 : 0.10;
    spec.mc.min_replications = smoke ? 8 : 16;
    spec.mc.max_replications = smoke ? 48 : 192;
    spec.mc.block = 4;
    spec.protocol.mobility = defaults.mobility;
    spec.protocol.radio_range_m = defaults.radio_range_m;
    spec.protocol.tick_s = defaults.tick_s;
    spec.protocol.topology_refresh_s = defaults.topology_refresh_s;
    spec.protocol.max_time_s = defaults.max_time_s;
    return spec;
  }
  if (name == "rare_event") {
    // The variance-reduction showcase: a hot per-node data rate
    // (λq = 1/s, so an undetected compromise leaks quickly) over the
    // 2×2 grid t_ids × n_init.  The two gated corners:
    //  * (t_ids=15, N=20): fast detection makes each compromise a
    //    leak/detect/evict race, so trajectory LENGTH is geometric and
    //    the free conditional-expectation control carries most of the
    //    TTSF variance — the CV regime (bench_vr gates its
    //    work-normalised efficiency at >= 5x on MTTSF).
    //  * (t_ids=1200, N=12): detection is negligible, so C2 capture
    //    means climbing UCm 1→5 before any of the UCm-proportional
    //    leaks fires — P(C2) ≈ 3e-6, invisible to the plain-MC budget
    //    (whose p_failure Summary goes one-sided Wilson at 0 observed
    //    C1 failures), and a textbook fit for the UCm splitting ladder
    //    (gated against the analytic p_failure_c2).
    // Scrambled-Sobol replicate groups run on every point.
    ExperimentSpec spec = named(name, smoke);
    spec.base.max_groups = 1;
    spec.base.num_voters = 9;
    spec.base.lambda_c = 1.0 / 2000.0;
    spec.base.lambda_q = 1.0;
    AxisSpec t_ids;
    t_ids.param = "t_ids";
    t_ids.values = {15.0, 1200.0};
    AxisSpec n_init;
    n_init.param = "n_init";
    n_init.values = {20, 12};
    spec.axes = {std::move(t_ids), std::move(n_init)};
    spec.backends = {BackendKind::Analytic, BackendKind::Des};
    spec.mc.base_seed = 0x7A11;
    spec.mc.rel_ci_target = 0.0;  // fixed budget: vr comparisons need it
    spec.mc.min_replications = smoke ? 256 : 1024;
    spec.mc.max_replications = spec.mc.min_replications;
    spec.vr.sobol.enabled = true;
    spec.vr.sobol.replicates = 8;
    spec.vr.sobol.samples_per_replicate = smoke ? 64 : 256;
    spec.vr.cv.enabled = true;
    spec.vr.cv.pilot = 128;
    spec.vr.cv.replications = smoke ? 1024 : 2048;
    spec.vr.splitting.enabled = true;
    spec.vr.splitting.target = "c2";
    spec.vr.splitting.levels = {2, 3, 4};
    spec.vr.splitting.scheme = "fixed_effort";
    spec.vr.splitting.effort = smoke ? 1024 : 2048;
    spec.vr.splitting.replicates = smoke ? 16 : 24;
    return spec;
  }
  if (name == "mission") {
    // Mission reliability R(t): survival-indicator proportions need a
    // fixed budget, not CI stopping.
    ExperimentSpec spec = named(name, smoke);
    spec.axes = {t_ids_of({15.0, 60.0, 240.0, 1200.0})};
    spec.backends = {BackendKind::Analytic, BackendKind::Des};
    spec.mc.base_seed = 0x51D;
    spec.mc.rel_ci_target = 0.0;
    spec.mc.min_replications = smoke ? 150 : 400;
    spec.mc.max_replications = spec.mc.min_replications;
    for (const double hours : {6.0, 24.0, 72.0, 168.0, 336.0}) {
      spec.mc.survival_horizons.push_back(hours * 3600.0);
    }
    return spec;
  }
  if (name == "mission_phased") {
    // Phased mission at the paper's N=100: a quiet infiltration day, a
    // two-day assault with the attacker four times hotter, then an
    // open-ended recovery at the base rate.  The analytic backend
    // chains the transient solver across the phase boundaries
    // (core::MissionAnalyzer); the DES truncates its Gillespie dwells
    // at the same breakpoints, so the two R(t) curves are gated
    // against each other in bench_mission.
    ExperimentSpec spec = named(name, smoke);
    const double lc0 = spec.base.lambda_c;
    MissionPhase infiltration;
    infiltration.name = "infiltration";
    infiltration.duration_s = 24.0 * 3600.0;
    infiltration.lambda_c = 0.25 * lc0;
    MissionPhase assault;
    assault.name = "assault";
    assault.duration_s = 48.0 * 3600.0;
    assault.lambda_c = 4.0 * lc0;
    MissionPhase recovery;  // inherits everything, runs forever
    recovery.name = "recovery";
    spec.base.mission.phases = {infiltration, assault, recovery};
    spec.axes = {t_ids_of(smoke ? std::vector<double>{60.0, 240.0}
                                : std::vector<double>{15.0, 60.0, 240.0,
                                                      1200.0})};
    spec.backends = {BackendKind::Analytic, BackendKind::Des};
    spec.mc.base_seed = 0x9147A5ED;
    spec.mc.rel_ci_target = 0.0;
    spec.mc.min_replications = smoke ? 150 : 400;
    spec.mc.max_replications = spec.mc.min_replications;
    for (const double hours : {6.0, 24.0, 72.0, 168.0, 336.0}) {
      spec.mc.survival_horizons.push_back(hours * 3600.0);
    }
    return spec;
  }
  if (name == "attacker_surge") {
    // Rate-schedule counterpart of mission_phased on the small packet-
    // level population: a baseline window, a one-hour λc×4 surge, then
    // stand-down at the base rate — run through all three backends so
    // the per-tick protocol simulator exercises the schedule too.
    ExperimentSpec spec = named(name, smoke);
    const auto defaults = sim::ProtocolSimParams::small_defaults();
    spec.base = defaults.model;
    spec.base.cost.mean_hops = 1.6;  // measured for this field/range
    spec.base.cost.sync_rekey_params();
    ScheduleSegment baseline;
    baseline.name = "baseline";
    baseline.duration_s = 600.0;
    ScheduleSegment surge;
    surge.name = "surge";
    surge.duration_s = 3600.0;
    surge.mult.lambda_c = 4.0;
    ScheduleSegment stand_down;  // identity multipliers, runs forever
    stand_down.name = "stand-down";
    spec.base.schedule.segments = {baseline, surge, stand_down};
    spec.axes = {t_ids_of({30.0, 120.0, 600.0})};
    spec.backends = {BackendKind::Analytic, BackendKind::Des,
                     BackendKind::ProtocolSim};
    spec.mc.base_seed = 0x5E9E;
    spec.mc.rel_ci_target = 0.0;
    spec.mc.min_replications = smoke ? 12 : 24;
    spec.mc.max_replications = spec.mc.min_replications;
    spec.mc.block = 4;
    spec.protocol.mobility = defaults.mobility;
    spec.protocol.radio_range_m = defaults.radio_range_m;
    spec.protocol.tick_s = defaults.tick_s;
    spec.protocol.topology_refresh_s = defaults.topology_refresh_s;
    spec.protocol.max_time_s = defaults.max_time_s;
    return spec;
  }

  std::string known;
  for (const auto& n : experiment_preset_names()) {
    known += known.empty() ? n : (" | " + n);
  }
  throw std::invalid_argument("experiment_preset: unknown preset '" + name +
                              "' (expected " + known + ")");
}

}  // namespace midas::core
