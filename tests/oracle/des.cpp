#include "oracle/des.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ids/detector_model.h"
#include "ids/functions.h"

namespace midas::sim::oracle {

namespace {

std::int64_t per_group(std::int64_t total, std::int64_t groups) {
  if (groups <= 1) return total;
  return static_cast<std::int64_t>(std::llround(
      static_cast<double>(total) / static_cast<double>(groups)));
}

}  // namespace

GroupSimulator::GroupSimulator(const core::Params& params)
    : params_(&params), cost_(params.cost) {
  params.validate();
  base_voting_ = ids::shared_voting_table(
      ids::VotingParams{params.num_voters, params.p1, params.p2},
      params.n_init, params.n_init);

  timed_ = params.time_varying();
  cur_ = &params;
  voting_ = base_voting_.get();
  next_boundary_ = std::numeric_limits<double>::infinity();
  if (timed_) {
    timeline_ = core::resolve_timeline(params);
    segment_voting_.reserve(timeline_.size());
    for (const auto& seg : timeline_) {
      segment_voting_.push_back(ids::shared_voting_table(
          ids::VotingParams{seg.params.num_voters, seg.params.p1,
                            seg.params.p2},
          seg.params.n_init, seg.params.n_init));
    }
    cur_ = &timeline_[0].params;
    voting_ = segment_voting_[0].get();
    if (timeline_.size() > 1) next_boundary_ = timeline_[1].start_s;
  }

  s_.tm = params.n_init;
  atk_on_ = true;
  static_detector_ = params.detector.kind == ids::DetectorKind::Static;
}

bool GroupSimulator::c2_failed() const {
  if (s_.members() == 0) return true;
  return static_cast<double>(s_.ucm) >
         params_->byzantine_fraction * static_cast<double>(s_.members()) +
             1e-9;
}

GroupSimulator::Status GroupSimulator::step(RandomSource& draw) {
  if (status_ != Status::Running) {
    throw std::logic_error("oracle::GroupSimulator::step: already absorbed");
  }
  const core::Params& params = *params_;
  const gcs::CostModel& cost = cost_;

  if (c2_failed()) {
    traj_.ttsf = now_;
    traj_.failed_by_c1 = false;
    status_ = Status::FailedC2;
    return status_;
  }

  auto detector_state = [&] {
    ids::DetectorState ds;
    ds.compromised = s_.ucm;
    ds.evicted = std::max<std::int64_t>(params.n_init - s_.members(), 0);
    ds.population = s_.members();
    ds.elapsed_s = now_;
    return ds;
  };

  double mc;
  if (params.attacker_progress == core::AttackerProgress::CampaignProgress) {
    mc = 1.0 + static_cast<double>(params.n_init - s_.tm);
  } else {
    mc = s_.tm > 0 ? static_cast<double>(s_.members()) /
                         static_cast<double>(s_.tm)
                   : 1.0;
  }
  const double md = std::max(
      1.0, static_cast<double>(params.n_init) /
               static_cast<double>(std::max<std::int64_t>(s_.members(), 1)));

  const double attack_base =
      s_.tm > 0 ? ids::attacker_rate(cur_->attacker_shape, cur_->lambda_c,
                                     mc, cur_->p_index)
                : 0.0;
  const double attack = params.attacker.event_rate(attack_base, atk_on_);
  const double r_phase = params.attacker.phase_rate(atk_on_);
  const double det = ids::detection_rate(cur_->detection_shape, cur_->t_ids,
                                         md, cur_->p_index);
  const auto eff =
      params.detector.effective(cur_->p1, cur_->p2, detector_state());
  const auto rates =
      static_detector_
          ? voting_->at(per_group(s_.tm, s_.ng), per_group(s_.ucm, s_.ng))
          : ids::voting_error_rates(
                ids::VotingParams{params.num_voters, eff.p1, eff.p2},
                per_group(s_.tm, s_.ng), per_group(s_.ucm, s_.ng));
  const double r_ids = static_cast<double>(s_.ucm) * det * (1.0 - rates.pfn);
  const double r_fa = static_cast<double>(s_.tm) * det * rates.pfp;
  const double r_drq = eff.p1 * cur_->lambda_q * static_cast<double>(s_.ucm);

  double r_par = 0.0, r_mer = 0.0;
  if (params.max_groups > 1) {
    const auto g = static_cast<std::size_t>(s_.ng);
    if (s_.ng < params.max_groups && s_.members() > s_.ng &&
        g < cur_->partition_rates.size()) {
      r_par = cur_->partition_rates[g];
    }
    if (s_.ng >= 2 && g < cur_->merge_rates.size()) {
      r_mer = cur_->merge_rates[g];
    }
  }

  const double total = attack + r_ids + r_fa + r_drq + r_par + r_mer + r_phase;
  if (total <= 0.0) {
    throw std::runtime_error(
        "simulate_group: deadlocked in a non-failure state");
  }

  gcs::GroupState gs;
  gs.members = static_cast<double>(s_.members());
  gs.groups = static_cast<double>(s_.ng);
  gs.initial_size = static_cast<double>(params.n_init);
  const auto breakdown =
      cost.breakdown(gs, cur_->lambda_q, params.lambda_join, params.mu_leave,
                     det, static_cast<std::size_t>(params.num_voters),
                     r_par + r_mer);

  const double dt = -std::log1p(-draw()) / total;
  if (now_ + dt > next_boundary_) {
    traj_.accumulated_cost += breakdown.total() * (next_boundary_ - now_);
    traj_.expected_dwell += next_boundary_ - now_;
    traj_.expected_cost += breakdown.total() * (next_boundary_ - now_);
    now_ = next_boundary_;
    ++seg_idx_;
    cur_ = &timeline_[seg_idx_].params;
    voting_ = segment_voting_[seg_idx_].get();
    next_boundary_ = seg_idx_ + 1 < timeline_.size()
                         ? timeline_[seg_idx_ + 1].start_s
                         : std::numeric_limits<double>::infinity();
    return status_;
  }
  now_ += dt;
  traj_.accumulated_cost += breakdown.total() * dt;
  traj_.expected_dwell += 1.0 / total;
  traj_.expected_cost += breakdown.total() / total;

  double u = draw() * total;
  if ((u -= attack) < 0.0) {
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
    traj_.accumulated_cost += cost.eviction_impulse_bits(gs);
    traj_.expected_cost += cost.eviction_impulse_bits(gs);
    return status_;
  }
  if ((u -= r_fa) < 0.0) {
    --s_.tm;
    ++traj_.false_evictions;
    traj_.accumulated_cost += cost.eviction_impulse_bits(gs);
    traj_.expected_cost += cost.eviction_impulse_bits(gs);
    return status_;
  }
  if ((u -= r_drq) < 0.0) {
    traj_.ttsf = now_;
    traj_.failed_by_c1 = true;
    status_ = Status::FailedC1;
    return status_;
  }
  if ((u -= r_par) < 0.0) {
    ++s_.ng;
    return status_;
  }
  if (r_phase > 0.0) {
    if ((u -= r_mer) < 0.0) {
      --s_.ng;
      return status_;
    }
    atk_on_ = !atk_on_;
    return status_;
  }
  --s_.ng;
  return status_;
}

}  // namespace midas::sim::oracle
