// sim::DesContext's per-segment rate tables against the per-event
// simulator they replaced (tests/oracle/des.h): the same streams must
// give the same status, event count and Trajectory bits, plain and
// antithetic, across every detector × attacker pair, both progress
// measures, all three shapes, one and three groups, n_init from 2 to
// 100, and constant, identity-schedule and phased-mission timelines.
// Also pinned: snapshot/restore across a phase boundary, concurrent
// reads of one context, and the typed errors for a context or
// snapshot that does not fit.
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/params.h"
#include "oracle/des.h"
#include "sim/des.h"
#include "sim/rng.h"

namespace {

using namespace midas;
using core::Params;
using Status = sim::GroupSimulator::Status;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same(const sim::Trajectory& a, const sim::Trajectory& b,
                 const std::string& where) {
  EXPECT_TRUE(same_bits(a.ttsf, b.ttsf)) << where;
  EXPECT_TRUE(same_bits(a.accumulated_cost, b.accumulated_cost)) << where;
  EXPECT_TRUE(same_bits(a.expected_dwell, b.expected_dwell)) << where;
  EXPECT_TRUE(same_bits(a.expected_cost, b.expected_cost)) << where;
  EXPECT_EQ(a.failed_by_c1, b.failed_by_c1) << where;
  EXPECT_EQ(a.compromises, b.compromises) << where;
  EXPECT_EQ(a.true_evictions, b.true_evictions) << where;
  EXPECT_EQ(a.false_evictions, b.false_evictions) << where;
}

enum class Timeline { Constant, IdentitySchedule, Mission };

/// Infiltration at λc/4, an assault at λc·4, then recovery at the base
/// rate — mission_phased's shape, with phase lengths scaled to `unit_s`.
void add_timeline(Params& p, Timeline t, double unit_s) {
  if (t == Timeline::IdentitySchedule) {
    p.schedule.segments = {core::ScheduleSegment{"constant", kInf, {}}};
  } else if (t == Timeline::Mission) {
    core::MissionPhase infiltration;
    infiltration.name = "infiltration";
    infiltration.duration_s = unit_s;
    infiltration.lambda_c = 0.25 * p.lambda_c;
    core::MissionPhase assault;
    assault.name = "assault";
    assault.duration_s = 2.0 * unit_s;
    assault.lambda_c = 4.0 * p.lambda_c;
    core::MissionPhase recovery;
    recovery.name = "recovery";
    p.mission.phases = {infiltration, assault, recovery};
  }
}

struct Config {
  ids::DetectorKind detector;
  sim::AttackerKind attacker;
  std::int32_t n_init;
  std::int32_t max_groups;
  core::AttackerProgress progress;
  ids::Shape attacker_shape;
  ids::Shape detection_shape;
  Timeline timeline;
};

Params params_for(const Config& c) {
  Params p = Params::paper_defaults();
  p.n_init = c.n_init;
  p.max_groups = c.max_groups;
  p.attacker_progress = c.progress;
  p.attacker_shape = c.attacker_shape;
  p.detection_shape = c.detection_shape;
  p.detector.kind = c.detector;
  p.attacker.kind = c.attacker;
  double unit_s = 86400.0;  // mission_phased's day at the paper's N
  if (c.n_init < 100) {
    // Small groups: a fast attacker and busy regrouping keep the
    // trajectories short while still crossing every phase and group
    // count.
    p.lambda_c = 1.0 / 2000.0;
    p.t_ids = 60.0;
    p.partition_rates = {0.0, 5e-3, 3e-3, 0.0};
    p.merge_rates = {0.0, 0.0, 1e-2, 2e-2};
    p.attacker.burst_on_s = 600.0;
    p.attacker.burst_off_s = 900.0;
    unit_s = 600.0;
  }
  add_timeline(p, c.timeline, unit_s);
  return p;
}

std::string describe(const Config& c) {
  return std::string(ids::to_string(c.detector)) + "/" +
         sim::to_string(c.attacker) + " N=" + std::to_string(c.n_init) +
         " groups=" + std::to_string(c.max_groups) + " " +
         core::to_string(c.progress) + " " + ids::to_string(c.attacker_shape) +
         "/" + ids::to_string(c.detection_shape) + " timeline=" +
         std::to_string(static_cast<int>(c.timeline));
}

struct Outcome {
  Status status = Status::Running;
  std::size_t events = 0;
  double now = 0.0;
  sim::Trajectory traj;
};

template <class Simulator>
Outcome run_to_absorption(Simulator& sim, sim::RandomSource& draw) {
  Outcome r;
  while (r.status == Status::Running) {
    r.status = sim.step(draw);
    ++r.events;
    if (r.events > 50'000'000) throw std::runtime_error("runaway trajectory");
  }
  r.now = sim.now();
  r.traj = sim.trajectory();
  return r;
}

TEST(DesTables, StepIsBitwiseThePerEventOracle) {
  using D = ids::DetectorKind;
  using A = sim::AttackerKind;
  using P = core::AttackerProgress;
  using S = ids::Shape;
  using T = Timeline;
  const S log = S::Logarithmic, lin = S::Linear, poly = S::Polynomial;
  const P ratio = P::CompromiseRatio, campaign = P::CampaignProgress;
  const std::vector<Config> configs{
      {D::Static, A::Poisson, 100, 3, ratio, lin, lin, T::Constant},
      {D::Static, A::Bursty, 100, 3, campaign, log, poly, T::Mission},
      {D::Static, A::Coordinated, 12, 1, ratio, poly, log,
       T::IdentitySchedule},
      {D::Static, A::Poisson, 100, 1, campaign, log, log, T::Mission},
      {D::Entropy, A::Poisson, 12, 3, campaign, lin, log, T::Mission},
      {D::Entropy, A::Bursty, 3, 3, ratio, log, lin, T::Constant},
      {D::Entropy, A::Coordinated, 2, 1, campaign, poly, poly,
       T::IdentitySchedule},
      {D::Cusum, A::Poisson, 3, 1, ratio, log, poly, T::Mission},
      {D::Cusum, A::Bursty, 12, 3, campaign, poly, lin, T::IdentitySchedule},
      {D::Cusum, A::Coordinated, 12, 3, ratio, lin, log, T::Constant},
      {D::Logistic, A::Poisson, 2, 3, campaign, poly, log, T::Constant},
      {D::Logistic, A::Bursty, 12, 1, ratio, lin, poly, T::Mission},
      {D::Logistic, A::Coordinated, 3, 3, campaign, log, lin,
       T::IdentitySchedule},
  };
  constexpr std::uint64_t kSeeds = 20;
  for (const Config& c : configs) {
    const Params p = params_for(c);
    const sim::DesContext ctx(p);
    std::size_t crossed = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      for (const bool antithetic : {false, true}) {
        const std::string where = describe(c) + " seed=" +
                                  std::to_string(seed) +
                                  (antithetic ? " antithetic" : " plain");
        sim::UniformStream fast_draw(seed, antithetic);
        sim::UniformStream ref_draw(seed, antithetic);
        sim::GroupSimulator fast(p, ctx);
        sim::oracle::GroupSimulator ref(p);
        const Outcome a = run_to_absorption(fast, fast_draw);
        const Outcome b = run_to_absorption(ref, ref_draw);
        ASSERT_EQ(a.status, b.status) << where;
        ASSERT_EQ(a.events, b.events) << where;
        EXPECT_TRUE(same_bits(a.now, b.now)) << where;
        expect_same(a.traj, b.traj, where);
        if (fast.snapshot().seg_idx > 0) ++crossed;
      }
    }
    // The phased configs must actually exercise the boundary hop.
    if (c.timeline == Timeline::Mission) {
      EXPECT_GT(crossed, 0u) << describe(c);
    }
  }
}

TEST(DesTables, RestoreBeforePhaseBoundaryContinuesBitwise) {
  const Config c{ids::DetectorKind::Static, sim::AttackerKind::Bursty, 12, 3,
                 core::AttackerProgress::CompromiseRatio, ids::Shape::Linear,
                 ids::Shape::Linear, Timeline::Mission};
  const Params p = params_for(c);
  const sim::DesContext ctx(p);
  std::size_t restored = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::UniformStream draw(seed);
    sim::GroupSimulator whole(p, ctx);
    // Step until the next step is the first boundary hop; keep the
    // snapshot and the stream from just before it.
    sim::GroupSimulator::Snapshot before = whole.snapshot();
    sim::UniformStream draw_before = draw;
    Status status = Status::Running;
    bool found = false;
    while (status == Status::Running && !found) {
      before = whole.snapshot();
      draw_before = draw;
      status = whole.step(draw);
      found = whole.snapshot().seg_idx != before.seg_idx;
    }
    if (!found) continue;
    ++restored;
    const Outcome uninterrupted = run_to_absorption(whole, draw);

    sim::GroupSimulator resumed(p, ctx);
    resumed.restore(before);
    const Outcome continued = run_to_absorption(resumed, draw_before);
    const std::string where = "seed=" + std::to_string(seed);
    ASSERT_EQ(continued.status, uninterrupted.status) << where;
    EXPECT_TRUE(same_bits(continued.now, uninterrupted.now)) << where;
    expect_same(continued.traj, uninterrupted.traj, where);
  }
  EXPECT_GT(restored, 10u);
}

TEST(DesTables, OneContextServesConcurrentSimulators) {
  // Monte-Carlo workers share one DesContext; under TSan this pins
  // that stepping only reads it.
  const Config c{ids::DetectorKind::Entropy, sim::AttackerKind::Bursty, 12, 3,
                 core::AttackerProgress::CompromiseRatio, ids::Shape::Linear,
                 ids::Shape::Linear, Timeline::Mission};
  const Params p = params_for(c);
  const sim::DesContext ctx(p);
  constexpr std::size_t kThreads = 4, kPerThread = 8;
  std::vector<sim::Trajectory> parallel(kThreads * kPerThread);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t k = t * kPerThread + i;
        parallel[k] = sim::simulate_group(p, k + 1, ctx);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t k = 0; k < parallel.size(); ++k) {
    expect_same(parallel[k], sim::simulate_group(p, k + 1, ctx),
                "seed=" + std::to_string(k + 1));
  }
}

void expect_invalid(const std::function<void()>& fn,
                    const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "no std::invalid_argument naming '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

Params small_params() {
  return params_for({ids::DetectorKind::Static, sim::AttackerKind::Poisson,
                     12, 3, core::AttackerProgress::CompromiseRatio,
                     ids::Shape::Linear, ids::Shape::Linear,
                     Timeline::Constant});
}

TEST(Des, MismatchedContextThrowsNamingTheField) {
  const Params p = small_params();
  Params bigger = p;
  bigger.n_init = 13;
  Params one_group = p;
  one_group.max_groups = 1;
  Params phased = p;
  add_timeline(phased, Timeline::Mission, 600.0);
  Params shifted = phased;
  shifted.mission.phases[0].duration_s = 700.0;

  const sim::DesContext ctx(p);
  const sim::DesContext phased_ctx(phased);
  auto build = [](const Params& params, const sim::DesContext& context) {
    return [&params, &context] { sim::GroupSimulator g(params, context); };
  };
  expect_invalid(build(bigger, ctx), "n_init");
  expect_invalid(build(one_group, ctx), "max_groups");
  expect_invalid(build(phased, ctx), "timeline");
  expect_invalid(build(p, phased_ctx), "timeline");
  expect_invalid(build(shifted, phased_ctx), "timeline");
  EXPECT_NO_THROW(build(phased, phased_ctx)());
}

TEST(Des, RestoreRejectsSnapshotsOutsideTheTables) {
  const Params p = small_params();
  const sim::DesContext ctx(p);
  sim::GroupSimulator sim(p, ctx);
  const auto good = sim.snapshot();

  auto with = [&](auto edit) {
    auto snap = good;
    edit(snap);
    return snap;
  };
  using Snap = sim::GroupSimulator::Snapshot;
  expect_invalid([&] { sim.restore(with([](Snap& s) { s.seg_idx = 1; })); },
                 "seg_idx");
  expect_invalid([&] { sim.restore(with([](Snap& s) { s.tm = 13; })); },
                 "tm");
  expect_invalid([&] { sim.restore(with([](Snap& s) { s.ucm = -1; })); },
                 "ucm");
  expect_invalid([&] {
    sim.restore(with([](Snap& s) {
      s.tm = 10;
      s.ucm = 3;
    }));
  }, "tm + ucm");
  expect_invalid([&] { sim.restore(with([](Snap& s) { s.ng = 4; })); },
                 "ng");
  expect_invalid([&] { sim.restore(with([](Snap& s) { s.ng = -1; })); },
                 "ng");
  EXPECT_NO_THROW(sim.restore(with([](Snap& s) {
    s.tm = 9;
    s.ucm = 3;
  })));
  EXPECT_EQ(sim.compromised(), 3);
}

}  // namespace
