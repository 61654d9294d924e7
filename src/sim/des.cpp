#include "sim/des.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gcs/cost_model.h"
#include "ids/detector_model.h"
#include "ids/functions.h"

#include "sim/mc_engine.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"

namespace midas::sim {

namespace {

std::int64_t per_group(std::int64_t total, std::int64_t groups) {
  if (groups <= 1) return total;
  return static_cast<std::int64_t>(std::llround(
      static_cast<double>(total) / static_cast<double>(groups)));
}

std::int64_t group_bound_of(const core::Params& params) {
  return std::max<std::int64_t>(
      1, std::min<std::int64_t>(params.max_groups, params.n_init));
}

/// Index of (Tm, UCm) in the Tm + UCm <= N triangle.
std::size_t triangle(std::int64_t tm, std::int64_t ucm) {
  const auto members = static_cast<std::size_t>(tm + ucm);
  return members * (members + 1) / 2 + static_cast<std::size_t>(ucm);
}

}  // namespace

DesContext::DesContext(const core::Params& params)
    : DesContext(params, &ids::shared_voting_table) {}

DesContext DesContext::fresh(const core::Params& params) {
  return DesContext(params, [](const ids::VotingParams& v, std::int64_t good,
                               std::int64_t bad) {
    return std::make_shared<const ids::VotingTable>(v, good, bad);
  });
}

DesContext::DesContext(const core::Params& params, VotingSource voting)
    : n_init_(params.n_init), ng_bound_(group_bound_of(params)) {
  params.validate();
  const std::int64_t n = n_init_;
  const auto width = static_cast<std::size_t>(n + 1);

  per_group_.resize(static_cast<std::size_t>(ng_bound_ + 1) * width);
  for (std::int64_t ng = 0; ng <= ng_bound_; ++ng) {
    for (std::int64_t x = 0; x <= n; ++x) {
      per_group_[static_cast<std::size_t>(ng) * width +
                 static_cast<std::size_t>(x)] = per_group(x, ng);
    }
  }

  // Each table entry is the per-event expression it replaces, on the
  // same operands: base-params fields where the per-event code read
  // the base point (n_init, attacker_progress, max_groups, λ, μ, m, the
  // cost params), segment fields where it read the segment.
  const gcs::CostModel cost(params.cost);
  auto add_segment = [&](const core::Params& sp, double start_s) {
    Segment seg;
    seg.start_s = start_s;
    seg.p1 = sp.p1;
    seg.p2 = sp.p2;
    seg.lambda_q = sp.lambda_q;
    seg.voting = voting(ids::VotingParams{sp.num_voters, sp.p1, sp.p2},
                        sp.n_init, sp.n_init);

    seg.rows.resize(per_group_.size());
    for (std::int64_t ng = 0; ng <= ng_bound_; ++ng) {
      for (std::int64_t members = 0; members <= n; ++members) {
        Row& row = seg.rows[static_cast<std::size_t>(ng) * width +
                            static_cast<std::size_t>(members)];
        const double md = std::max(
            1.0, static_cast<double>(params.n_init) /
                     static_cast<double>(std::max<std::int64_t>(members, 1)));
        row.det = ids::detection_rate(sp.detection_shape, sp.t_ids, md,
                                      sp.p_index);
        if (params.max_groups > 1) {
          const auto g = static_cast<std::size_t>(ng);
          if (ng < params.max_groups && members > ng &&
              g < sp.partition_rates.size()) {
            row.r_par = sp.partition_rates[g];
          }
          if (ng >= 2 && g < sp.merge_rates.size()) {
            row.r_mer = sp.merge_rates[g];
          }
        }
        gcs::GroupState gs;
        gs.members = static_cast<double>(members);
        gs.groups = static_cast<double>(ng);
        gs.initial_size = static_cast<double>(params.n_init);
        row.cost_rate =
            cost.breakdown(gs, sp.lambda_q, params.lambda_join,
                           params.mu_leave, row.det,
                           static_cast<std::size_t>(params.num_voters),
                           row.r_par + row.r_mer)
                .total();
        row.impulse_bits = cost.eviction_impulse_bits(gs);
      }
    }

    seg.attack_base.resize(triangle(n + 1, 0));  // first index past N
    for (std::int64_t members = 0; members <= n; ++members) {
      for (std::int64_t ucm = 0; ucm <= members; ++ucm) {
        const std::int64_t tm = members - ucm;
        // DCm follows from token conservation: evicted = N − Tm − UCm.
        const double mc =
            params.attacker_progress ==
                    core::AttackerProgress::CampaignProgress
                ? 1.0 + static_cast<double>(params.n_init - tm)
                : (tm > 0 ? static_cast<double>(members) /
                                static_cast<double>(tm)
                          : 1.0);
        seg.attack_base[triangle(tm, ucm)] =
            tm > 0 ? ids::attacker_rate(sp.attacker_shape, sp.lambda_c, mc,
                                        sp.p_index)
                   : 0.0;
      }
    }
    segments_.push_back(std::move(seg));
  };

  // A constant point is its own single segment (no resolve, so every
  // value is read from `params` itself).
  if (!params.time_varying()) {
    add_segment(params, 0.0);
  } else {
    const auto timeline = core::resolve_timeline(params);
    segments_.reserve(timeline.size());
    for (const auto& t : timeline) add_segment(t.params, t.start_s);
  }
}

GroupSimulator::GroupSimulator(const core::Params& params,
                               const DesContext& context)
    : params_(&params), ctx_(&context) {
  params.validate();
  const auto mismatch = [](const std::string& field, auto ours,
                           auto context_value) {
    return std::invalid_argument("GroupSimulator: " + field + " " +
                                 std::to_string(ours) +
                                 " differs from the DesContext's " +
                                 std::to_string(context_value));
  };
  if (params.n_init != context.n_init_) {
    throw mismatch("n_init", params.n_init, context.n_init_);
  }
  if (group_bound_of(params) != context.ng_bound_) {
    throw mismatch("max_groups: group bound", group_bound_of(params),
                   context.ng_bound_);
  }
  const std::vector<double> starts = core::timeline_starts(params);
  if (starts.size() != context.segments_.size()) {
    throw mismatch("timeline: segment count", starts.size(),
                   context.segments_.size());
  }
  for (std::size_t i = 0; i < starts.size(); ++i) {
    if (starts[i] != context.segments_[i].start_s) {
      throw mismatch("timeline: segment " + std::to_string(i) + " start",
                     starts[i], context.segments_[i].start_s);
    }
  }

  s_.tm = params.n_init;
  // Attacker phase (bursty on/off modulation).  Non-bursty attackers
  // never flip it: phase_rate() is 0.0 there, which adds nothing to the
  // total rate (IEEE-exact) and the flip branch below is gated on
  // r_phase > 0.0 — so poisson trajectories consume the exact legacy
  // draw sequence.
  atk_on_ = true;
  static_detector_ = params.detector.kind == ids::DetectorKind::Static;
  enter(0);
}

void GroupSimulator::enter(std::size_t idx) {
  const auto& segments = ctx_->segments_;
  seg_idx_ = idx;
  seg_ = &segments[idx];
  next_boundary_ = idx + 1 < segments.size()
                       ? segments[idx + 1].start_s
                       : std::numeric_limits<double>::infinity();
}

std::int64_t GroupSimulator::compromised() const noexcept { return s_.ucm; }

bool GroupSimulator::c2_failed() const {
  if (s_.members() == 0) return true;
  return static_cast<double>(s_.ucm) >
         params_->byzantine_fraction * static_cast<double>(s_.members()) +
             1e-9;
}

GroupSimulator::Snapshot GroupSimulator::snapshot() const {
  Snapshot snap;
  snap.tm = s_.tm;
  snap.ucm = s_.ucm;
  snap.ng = s_.ng;
  snap.now = now_;
  snap.atk_on = atk_on_;
  snap.seg_idx = seg_idx_;
  snap.traj = traj_;
  snap.status = status_;
  return snap;
}

void GroupSimulator::restore(const Snapshot& snap) {
  const DesContext& ctx = *ctx_;
  const std::int64_t n = ctx.n_init_;
  if (snap.seg_idx >= ctx.segments_.size()) {
    throw std::invalid_argument(
        "GroupSimulator::restore: seg_idx " + std::to_string(snap.seg_idx) +
        " is past the last of " + std::to_string(ctx.segments_.size()) +
        " segments");
  }
  if (snap.tm < 0 || snap.ucm < 0 || snap.tm > n || snap.ucm > n - snap.tm) {
    throw std::invalid_argument(
        "GroupSimulator::restore: (tm, ucm) = (" + std::to_string(snap.tm) +
        ", " + std::to_string(snap.ucm) + ") is outside tm + ucm <= " +
        std::to_string(n));
  }
  if (snap.ng < 0 || snap.ng > ctx.ng_bound_) {
    throw std::invalid_argument("GroupSimulator::restore: ng " +
                                std::to_string(snap.ng) + " is outside 0.." +
                                std::to_string(ctx.ng_bound_));
  }
  s_.tm = snap.tm;
  s_.ucm = snap.ucm;
  s_.ng = snap.ng;
  now_ = snap.now;
  atk_on_ = snap.atk_on;
  traj_ = snap.traj;
  status_ = snap.status;
  enter(snap.seg_idx);
}

GroupSimulator::Status GroupSimulator::step(RandomSource& draw) {
  if (status_ != Status::Running) {
    throw std::logic_error("GroupSimulator::step: already absorbed");
  }
  const core::Params& params = *params_;

  if (c2_failed()) {
    traj_.ttsf = now_;
    traj_.failed_by_c1 = false;
    status_ = Status::FailedC2;
    return status_;
  }

  // The state's tabulated rates (DesContext); only the event
  // arithmetic below runs per event.
  const DesContext::Segment& seg = *seg_;
  const auto width = static_cast<std::size_t>(ctx_->n_init_ + 1);
  const auto ng = static_cast<std::size_t>(s_.ng);
  const DesContext::Row& row =
      seg.rows[ng * width + static_cast<std::size_t>(s_.members())];
  const std::int64_t* group = &ctx_->per_group_[ng * width];

  // Poisson: event_rate returns the base unchanged (bitwise).
  const double attack = params.attacker.event_rate(
      seg.attack_base[triangle(s_.tm, s_.ucm)], atk_on_);
  const double r_phase = params.attacker.phase_rate(atk_on_);
  const double det = row.det;
  // Static detector: effective (p1,p2) == (p1,p2), so the segment's
  // voting table applies and r_drq is the exact legacy expression.
  // State-dependent detectors re-evaluate Equation 1 with the effective
  // rates each event (no table can be keyed ahead of time once elapsed
  // time enters).  DCm follows from token conservation (evicted =
  // N − Tm − UCm; the DES has no join/leave events, mirroring the SPN).
  ids::EffectiveErrorRates eff{seg.p1, seg.p2};
  ids::VotingErrorRates rates;
  if (static_detector_) {
    rates = seg.voting->at(group[s_.tm], group[s_.ucm]);
  } else {
    ids::DetectorState ds;
    ds.compromised = s_.ucm;
    ds.evicted = std::max<std::int64_t>(params.n_init - s_.members(), 0);
    ds.population = s_.members();
    ds.elapsed_s = now_;
    eff = params.detector.effective(seg.p1, seg.p2, ds);
    rates = ids::voting_error_rates(
        ids::VotingParams{params.num_voters, eff.p1, eff.p2}, group[s_.tm],
        group[s_.ucm]);
  }
  const double r_ids = static_cast<double>(s_.ucm) * det * (1.0 - rates.pfn);
  const double r_fa = static_cast<double>(s_.tm) * det * rates.pfp;
  const double r_drq = eff.p1 * seg.lambda_q * static_cast<double>(s_.ucm);
  const double r_par = row.r_par;
  const double r_mer = row.r_mer;

  const double total = attack + r_ids + r_fa + r_drq + r_par + r_mer + r_phase;
  if (total <= 0.0) {
    throw std::runtime_error(
        "simulate_group: deadlocked in a non-failure state");
  }

  // Cost accrues at the state's rate until the next event.
  const double cost_rate = row.cost_rate;
  const double dt = -std::log1p(-draw()) / total;
  if (now_ + dt > next_boundary_) {
    // Schedule/mission breakpoint before the sampled event: accrue
    // cost for the truncated dwell, switch segments and resample.
    // The exponential dwell is memoryless, so restarting the clock
    // under the new rates is exact, not an approximation.  The control
    // accumulators take the truncated dwell as-is (deterministic given
    // the path); their exact-mean property is claimed only for the
    // time-homogeneous model, where this branch never fires.
    traj_.accumulated_cost += cost_rate * (next_boundary_ - now_);
    traj_.expected_dwell += next_boundary_ - now_;
    traj_.expected_cost += cost_rate * (next_boundary_ - now_);
    now_ = next_boundary_;
    enter(seg_idx_ + 1);
    return status_;
  }
  now_ += dt;
  traj_.accumulated_cost += cost_rate * dt;
  // The conditional-expectation controls: E[dt | state] = 1/total and
  // E[dwell cost | state] = rate/total; dt and the event choice are
  // drawn independently, so summing these over the realised jump path
  // gives E[TTSF | path] / E[cost | path] exactly (time-homogeneous).
  traj_.expected_dwell += 1.0 / total;
  traj_.expected_cost += cost_rate / total;

  // Pick the event (Gillespie direct method).
  double u = draw() * total;
  if ((u -= attack) < 0.0) {
    // Coordinated attackers strike batch_size() victims at once
    // (capped by the trusted pool); single-victim kinds take the
    // legacy one-node step.
    const std::int64_t k =
        std::min<std::int64_t>(params.attacker.batch_size(), s_.tm);
    s_.tm -= k;
    s_.ucm += k;
    traj_.compromises += static_cast<std::size_t>(k);
    return status_;
  }
  if ((u -= r_ids) < 0.0) {
    --s_.ucm;
    ++traj_.true_evictions;
    traj_.accumulated_cost += row.impulse_bits;
    traj_.expected_cost += row.impulse_bits;
    return status_;
  }
  if ((u -= r_fa) < 0.0) {
    --s_.tm;
    ++traj_.false_evictions;
    traj_.accumulated_cost += row.impulse_bits;
    traj_.expected_cost += row.impulse_bits;
    return status_;
  }
  if ((u -= r_drq) < 0.0) {
    traj_.ttsf = now_;
    traj_.failed_by_c1 = true;  // data leak: C1
    status_ = Status::FailedC1;
    return status_;
  }
  if ((u -= r_par) < 0.0) {
    ++s_.ng;
    return status_;
  }
  if (r_phase > 0.0) {
    // Only bursty attackers have a phase event; the guard keeps the
    // legacy unchecked-merge fallback (and its floating-point
    // behaviour) intact for every other attacker kind.
    if ((u -= r_mer) < 0.0) {
      --s_.ng;
      return status_;
    }
    atk_on_ = !atk_on_;  // on/off flip (fallback event)
    return status_;
  }
  // Merge — or, when rounding leaves u >= 0 past the last positive
  // rate, the same fallback the legacy loop took.  The tables hold
  // NG = 0 for that; a second overshoot there has no row to read.
  if (s_.ng == 0) {
    throw std::logic_error(
        "GroupSimulator::step: Gillespie selection overshot at NG = 0");
  }
  --s_.ng;
  return status_;
}

GroupSimulator::Status GroupSimulator::run(RandomSource& draw) {
  while (status_ == Status::Running) step(draw);
  return status_;
}

Trajectory simulate_group(const core::Params& params, RandomSource& draw,
                          const DesContext& context) {
  GroupSimulator sim(params, context);
  sim.run(draw);
  return sim.trajectory();
}

Trajectory simulate_group(const core::Params& params, std::uint64_t seed,
                          const DesContext& context) {
  UniformStream draw(seed);
  return simulate_group(params, draw, context);
}

Trajectory simulate_group(const core::Params& params, std::uint64_t seed) {
  return simulate_group(params, seed, DesContext(params));
}

ReplicationResult run_replications(const core::Params& params,
                                   std::size_t replications,
                                   std::uint64_t base_seed,
                                   std::size_t threads,
                                   bool capture_trajectories) {
  if (replications == 0) return {};  // empty summary, as the seed did

  McOptions opts;
  opts.base_seed = base_seed;
  opts.min_replications = replications;
  opts.max_replications = replications;
  opts.rel_ci_target = 0.0;  // fixed replication count
  opts.threads = threads;
  opts.capture_trajectories = capture_trajectories;
  MonteCarloEngine engine(opts);
  auto point = engine.run_des(params);

  ReplicationResult result;
  result.ttsf = point.ttsf;
  result.cost_rate = point.cost_rate;
  result.p_failure_c1 = point.p_failure_c1;
  result.trajectories = std::move(point.trajectories);
  return result;
}

ReplicationResult run_replications_reference(const core::Params& params,
                                             std::size_t replications,
                                             std::uint64_t base_seed,
                                             std::size_t threads) {
  ReplicationResult result;
  result.trajectories.resize(replications);

  parallel_for(
      replications,
      [&](std::size_t i) {
        const DesContext context = DesContext::fresh(params);
        result.trajectories[i] =
            simulate_group(params, derive_seed(base_seed, i), context);
      },
      threads);

  std::vector<double> ttsf(replications), cost_rate(replications);
  std::size_t c1 = 0;
  for (std::size_t i = 0; i < replications; ++i) {
    ttsf[i] = result.trajectories[i].ttsf;
    cost_rate[i] = result.trajectories[i].mean_cost_rate();
    if (result.trajectories[i].failed_by_c1) ++c1;
  }
  result.ttsf = summarize(ttsf);
  result.cost_rate = summarize(cost_rate);
  result.p_failure_c1 = replications > 0
                            ? static_cast<double>(c1) /
                                  static_cast<double>(replications)
                            : 0.0;
  return result;
}

}  // namespace midas::sim
