#include "core/gcs_spn_model.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include <algorithm>

#include "ids/functions.h"
#include "spn/reliability_ode.h"

namespace midas::core {

namespace {

/// Rounded per-group share of a system-wide token count.
std::int64_t per_group(std::int64_t total, std::int64_t groups) {
  if (groups <= 1) return total;
  const double share =
      static_cast<double>(total) / static_cast<double>(groups);
  return static_cast<std::int64_t>(std::llround(share));
}

}  // namespace

GcsSpnModel::GcsSpnModel(Params params) : params_(std::move(params)) {
  params_.validate();
  // The analytic backend solves a time-homogeneous CTMC: a detector or
  // attacker whose behaviour depends on anything outside the marking
  // (elapsed time, hidden phase, batch jumps) has no such chain.  Name
  // the model and route the caller to the simulators — the spec
  // validator raises the same complaint earlier with a JSON path.
  // Piecewise-constant variation is a separate case with its own
  // analytic answer: params carrying a schedule/mission must go through
  // core::MissionAnalyzer, which chains this model per timeline
  // segment.
  if (params_.time_varying()) {
    throw std::invalid_argument(
        "GcsSpnModel: params carry a schedule/mission (time-varying "
        "rates), which a single time-homogeneous CTMC cannot express; "
        "use core::MissionAnalyzer (the analytic backend routes there "
        "automatically) or the des/protocol_sim backends");
  }
  if (!params_.detector.analytic_compatible()) {
    throw std::invalid_argument(
        std::string("GcsSpnModel: detector model \"") +
        ids::to_string(params_.detector.kind) +
        "\" is time-dependent and cannot be expressed as a "
        "time-homogeneous CTMC; use the des or protocol_sim backend "
        "(for piecewise-constant rate variation, use the first-class "
        "schedule/mission fields instead)");
  }
  if (!params_.attacker.analytic_compatible()) {
    throw std::invalid_argument(
        std::string("GcsSpnModel: attacker model \"") +
        sim::to_string(params_.attacker.kind) +
        "\" is not a memoryless single-victim process and cannot be "
        "expressed in the birth-death SPN; use the des or protocol_sim "
        "backend");
  }
  voting_ = ids::shared_voting_table(
      ids::VotingParams{params_.num_voters, params_.p1, params_.p2},
      params_.n_init, params_.n_init);
  cost_ = std::make_shared<const gcs::CostModel>(params_.cost);
  build();
}

bool GcsSpnModel::failed_c1(const spn::Marking& m) const {
  return m[gf_] > 0;
}

bool GcsSpnModel::failed_c2(const spn::Marking& m) const {
  const std::int64_t tm = m[tm_];
  const std::int64_t ucm = m[ucm_];
  const std::int64_t members = tm + ucm;
  if (members == 0) return true;  // extinct group: availability lost
  // UCm/(Tm+UCm) > f  ⇔  UCm > f·members, exact in integers for f = 1/3
  // via UCm·3 > members; general f handled in doubles with a half-ulp
  // guard so the boundary (exactly 1/3) does NOT fail, matching "more
  // than 1/3".
  return static_cast<double>(ucm) >
         params_.byzantine_fraction * static_cast<double>(members) +
             1e-9;
}

bool GcsSpnModel::alive(const spn::Marking& m) const {
  return !failed_c1(m) && !failed_c2(m);
}

double GcsSpnModel::mc(const spn::Marking& m) const {
  if (params_.attacker_progress == AttackerProgress::CampaignProgress) {
    // Cumulative campaign: every compromised node, detected or not.
    // (DCm also counts false evictions — the shrunken group is easier
    // prey either way; see DESIGN.md.)
    return 1.0 + static_cast<double>(m[ucm_] + m[dcm_]);
  }
  const double tm = m[tm_];
  const double ucm = m[ucm_];
  if (tm <= 0.0) return 1.0;  // guarded out; safe fallback
  return (tm + ucm) / tm;
}

double GcsSpnModel::md(const spn::Marking& m) const {
  const double members = m[tm_] + m[ucm_];
  if (members <= 0.0) return 1.0;
  return std::max(1.0, static_cast<double>(params_.n_init) / members);
}

ids::VotingErrorRates GcsSpnModel::voting_rates(
    const spn::Marking& m) const {
  const std::int64_t groups = std::max<std::int64_t>(m[ng_], 1);
  return voting_rates_keyed(m[tm_], m[ucm_], groups,
                            per_group(m[tm_], groups),
                            per_group(m[ucm_], groups));
}

ids::DetectorState GcsSpnModel::detector_state(std::int64_t tm,
                                               std::int64_t ucm) const {
  ids::DetectorState s;
  s.compromised = ucm;
  s.evicted = std::max<std::int64_t>(params_.n_init - tm - ucm, 0);
  s.population = tm + ucm;
  s.elapsed_s = 0.0;  // analytic-compatible detectors never read it
  return s;
}

double GcsSpnModel::effective_p1(std::int64_t tm, std::int64_t ucm) const {
  if (params_.detector.kind == ids::DetectorKind::Static) {
    // The base constant itself — keeps T_DRQ's rate expression bitwise
    // the legacy p1·λq·UCm.
    return params_.p1;
  }
  const auto compute = [&] {
    return params_.detector
        .effective(params_.p1, params_.p2, detector_state(tm, ucm))
        .p1;
  };
  if (memo_enabled_ && !dyn_p1_memo_.empty()) {
    const std::int64_t n = params_.n_init;
    if (tm >= 0 && tm <= n && ucm >= 0 && ucm <= n) {
      double& slot =
          dyn_p1_memo_[static_cast<std::size_t>(tm * (n + 1) + ucm)];
      if (std::isnan(slot)) slot = compute();
      return slot;
    }
  }
  return compute();
}

ids::VotingErrorRates GcsSpnModel::voting_rates_keyed(
    std::int64_t tm, std::int64_t ucm, std::int64_t groups,
    std::int64_t g_tm, std::int64_t g_ucm) const {
  if (params_.detector.kind == ids::DetectorKind::Static) {
    return voting_->at(g_tm, g_ucm);
  }
  // State-dependent (p1,p2): the precomputed table keyed only on the
  // voting pools no longer applies — re-evaluate Equation 1 with the
  // detector's effective rates, memoised per (Tm, UCm, NG) since both
  // the effective rates (via Tm,UCm) and the pools (via NG) hang off
  // that triple.
  const auto compute = [&] {
    const auto eff = params_.detector.effective(params_.p1, params_.p2,
                                                detector_state(tm, ucm));
    return ids::voting_error_rates(
        ids::VotingParams{params_.num_voters, eff.p1, eff.p2}, g_tm, g_ucm);
  };
  if (memo_enabled_ && !dyn_vote_memo_.empty()) {
    const std::int64_t n = params_.n_init;
    const std::int64_t gmax = std::max<std::int32_t>(params_.max_groups, 1);
    if (tm >= 0 && tm <= n && ucm >= 0 && ucm <= n && groups >= 1 &&
        groups <= gmax) {
      auto& slot = dyn_vote_memo_[static_cast<std::size_t>(
          (tm * (n + 1) + ucm) * gmax + (groups - 1))];
      if (std::isnan(slot.pfn)) slot = compute();
      return slot;
    }
  }
  return compute();
}

void GcsSpnModel::enable_factor_memo() {
  if (memo_enabled_) return;
  const auto n = static_cast<std::size_t>(params_.n_init);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  det_memo_.assign(n + 1, nan);
  if (params_.attacker_progress == AttackerProgress::CampaignProgress) {
    atk_memo_.assign(n + 1, nan);
  } else {
    atk_memo_.assign((n + 1) * (n + 1), nan);
  }
  const auto gmax =
      static_cast<std::size_t>(std::max<std::int32_t>(params_.max_groups, 1));
  evict_memo_.assign((n + 1) * gmax, nan);
  if (params_.detector.state_dependent()) {
    // ≈ (N+1)²·G entries (~30k at N=100, G=3): the price of keying the
    // voting memo on the detector state instead of the pool sizes.
    dyn_vote_memo_.assign((n + 1) * (n + 1) * gmax,
                          ids::VotingErrorRates{nan, nan});
    dyn_p1_memo_.assign((n + 1) * (n + 1), nan);
  }
  memo_enabled_ = true;
}

double GcsSpnModel::detection_rate_at(const spn::Marking& m) const {
  return detection_rate_memo(m[tm_] + m[ucm_], m);
}

double GcsSpnModel::detection_rate_memo(std::int64_t members,
                                        const spn::Marking& m) const {
  if (memo_enabled_ && members >= 0 &&
      members < static_cast<std::int64_t>(det_memo_.size())) {
    double& slot = det_memo_[static_cast<std::size_t>(members)];
    if (std::isnan(slot)) {
      slot = ids::detection_rate(params_.detection_shape, params_.t_ids,
                                 md(m), params_.p_index);
    }
    return slot;
  }
  return ids::detection_rate(params_.detection_shape, params_.t_ids, md(m),
                             params_.p_index);
}

double GcsSpnModel::attacker_rate_at(const spn::Marking& m) const {
  if (memo_enabled_) {
    const std::int64_t n = params_.n_init;
    std::int64_t key = -1;
    if (params_.attacker_progress == AttackerProgress::CampaignProgress) {
      // mc = 1 + UCm + DCm.
      const std::int64_t k = m[ucm_] + m[dcm_];
      if (k >= 0 && k <= n) key = k;
    } else {
      // mc = (Tm+UCm)/Tm.
      const std::int64_t tm = m[tm_];
      const std::int64_t ucm = m[ucm_];
      if (tm >= 0 && tm <= n && ucm >= 0 && ucm <= n) {
        key = tm * (n + 1) + ucm;
      }
    }
    if (key >= 0 && key < static_cast<std::int64_t>(atk_memo_.size())) {
      double& slot = atk_memo_[static_cast<std::size_t>(key)];
      if (std::isnan(slot)) {
        slot = ids::attacker_rate(params_.attacker_shape, params_.lambda_c,
                                  mc(m), params_.p_index);
      }
      return slot;
    }
  }
  return ids::attacker_rate(params_.attacker_shape, params_.lambda_c, mc(m),
                            params_.p_index);
}

double GcsSpnModel::eviction_impulse_at(const spn::Marking& m) const {
  return eviction_impulse_memo(m[tm_] + m[ucm_],
                               std::max<std::int32_t>(m[ng_], 1));
}

double GcsSpnModel::eviction_impulse_memo(std::int64_t members,
                                          std::int64_t groups) const {
  // Exactly the T_IDS/T_FA impulse expression build() registers; the
  // memo only caches its (deterministic) result, keyed by the two
  // marking quantities it reads.
  const auto compute = [&] {
    gcs::GroupState s;
    s.members = static_cast<double>(members);
    s.groups = static_cast<double>(groups);
    s.initial_size = static_cast<double>(params_.n_init);
    return cost_->eviction_impulse_bits(s);
  };
  if (memo_enabled_) {
    const std::int64_t gmax = std::max<std::int32_t>(params_.max_groups, 1);
    if (members >= 0 && members <= params_.n_init && groups <= gmax) {
      double& slot = evict_memo_[static_cast<std::size_t>(members * gmax +
                                                          (groups - 1))];
      if (std::isnan(slot)) slot = compute();
      return slot;
    }
  }
  return compute();
}

spn::BatchRateFn GcsSpnModel::batch_rate_fn(
    std::vector<const GcsSpnModel*> models) {
  if (models.empty()) return {};
  // Map the shared structure's transition ids to their model role once;
  // the hook then dispatches on a flat array instead of names.
  enum class Role : std::uint8_t { CP, IDS, FA, DRQ, PAR, MER, Other };
  const spn::PetriNet& net = models.front()->net();
  std::vector<Role> roles(net.num_transitions(), Role::Other);
  const auto assign = [&](const char* name, Role r) {
    if (const auto t = net.find_transition(name)) roles[*t] = r;
  };
  assign("T_CP", Role::CP);
  assign("T_IDS", Role::IDS);
  assign("T_FA", Role::FA);
  assign("T_DRQ", Role::DRQ);
  assign("T_PAR", Role::PAR);
  assign("T_MER", Role::MER);

  return [models = std::move(models), roles = std::move(roles)](
             spn::TransitionId t, const spn::Marking& m,
             std::span<double> rates, std::span<double> impulses) -> bool {
    if (t >= roles.size() || roles[t] == Role::Other) return false;
    // PetriNet::rate clamps non-positive rate-function values to 0; the
    // hook must agree bitwise with it, so mirror the clamp.
    const auto clamp = [](double r) { return r > 0.0 ? r : 0.0; };
    const GcsSpnModel& m0 = *models.front();
    const std::size_t P = models.size();
    switch (roles[t]) {
      case Role::CP:
        for (std::size_t p = 0; p < P; ++p) {
          rates[p] = clamp(models[p]->attacker_rate_at(m));
          impulses[p] = 0.0;
        }
        return true;
      case Role::IDS: {
        // Token counts, memo keys and the per-group voting-pool indices
        // depend on the marking alone — hoist them out of the point
        // loop.  The per-point expression is exactly the T_IDS rate
        // lambda's: voting_rates_keyed serves the static table lookup
        // for static detectors and the (Tm,UCm,NG)-keyed dynamic memo
        // for state-dependent ones.
        const std::int64_t tm_tok = m[m0.tm_];
        const std::int64_t ucm_tok = m[m0.ucm_];
        const double ucm = static_cast<double>(ucm_tok);
        const std::int64_t members = tm_tok + ucm_tok;
        const std::int64_t groups = std::max<std::int64_t>(m[m0.ng_], 1);
        const std::int64_t g_tm = per_group(tm_tok, groups);
        const std::int64_t g_ucm = per_group(ucm_tok, groups);
        for (std::size_t p = 0; p < P; ++p) {
          const GcsSpnModel& mod = *models[p];
          rates[p] =
              clamp(ucm * mod.detection_rate_memo(members, m) *
                    (1.0 - mod.voting_rates_keyed(tm_tok, ucm_tok, groups,
                                                  g_tm, g_ucm)
                               .pfn));
          impulses[p] = mod.eviction_impulse_memo(members, groups);
        }
        return true;
      }
      case Role::FA: {
        const std::int64_t tm_tok = m[m0.tm_];
        const std::int64_t ucm_tok = m[m0.ucm_];
        const double tm = static_cast<double>(tm_tok);
        const std::int64_t members = tm_tok + ucm_tok;
        const std::int64_t groups = std::max<std::int64_t>(m[m0.ng_], 1);
        const std::int64_t g_tm = per_group(tm_tok, groups);
        const std::int64_t g_ucm = per_group(ucm_tok, groups);
        for (std::size_t p = 0; p < P; ++p) {
          const GcsSpnModel& mod = *models[p];
          rates[p] = clamp(tm * mod.detection_rate_memo(members, m) *
                           mod.voting_rates_keyed(tm_tok, ucm_tok, groups,
                                                  g_tm, g_ucm)
                               .pfp);
          impulses[p] = mod.eviction_impulse_memo(members, groups);
        }
        return true;
      }
      case Role::DRQ: {
        const std::int64_t tm_tok = m[m0.tm_];
        const std::int64_t ucm_tok = m[m0.ucm_];
        const double ucm = static_cast<double>(ucm_tok);
        for (std::size_t p = 0; p < P; ++p) {
          const GcsSpnModel& mod = *models[p];
          rates[p] = clamp(mod.effective_p1(tm_tok, ucm_tok) *
                           mod.params_.lambda_q * ucm);
          impulses[p] = 0.0;
        }
        return true;
      }
      case Role::PAR: {
        const auto g = static_cast<std::size_t>(m[m0.ng_]);
        for (std::size_t p = 0; p < P; ++p) {
          const auto& pr = models[p]->params_.partition_rates;
          rates[p] = clamp(g < pr.size() ? pr[g] : 0.0);
          impulses[p] = 0.0;
        }
        return true;
      }
      case Role::MER: {
        const auto g = static_cast<std::size_t>(m[m0.ng_]);
        for (std::size_t p = 0; p < P; ++p) {
          const auto& mr = models[p]->params_.merge_rates;
          rates[p] = clamp(g < mr.size() ? mr[g] : 0.0);
          impulses[p] = 0.0;
        }
        return true;
      }
      case Role::Other:
        break;
    }
    return false;
  };
}

gcs::CostBreakdown GcsSpnModel::cost_rates(const spn::Marking& m) const {
  gcs::GroupState s;
  s.members = static_cast<double>(m[tm_] + m[ucm_]);
  s.groups = static_cast<double>(std::max<std::int32_t>(m[ng_], 1));
  s.initial_size = static_cast<double>(params_.n_init);

  const double det = detection_rate_at(m);
  const auto g = static_cast<std::size_t>(s.groups);
  double pm_rate = 0.0;
  if (params_.max_groups > 1) {
    if (g < params_.partition_rates.size() &&
        static_cast<std::int32_t>(g) < params_.max_groups) {
      pm_rate += params_.partition_rates[g];
    }
    if (g < params_.merge_rates.size() && g > 1) {
      pm_rate += params_.merge_rates[g];
    }
  }
  return cost_->breakdown(s, params_.lambda_q, params_.lambda_join,
                          params_.mu_leave, det,
                          static_cast<std::size_t>(params_.num_voters),
                          pm_rate);
}

void GcsSpnModel::build() {
  tm_ = net_.add_place("Tm", params_.n_init);
  ucm_ = net_.add_place("UCm", 0);
  dcm_ = net_.add_place("DCm", 0);
  gf_ = net_.add_place("GF", 0);
  ng_ = net_.add_place("NG", 1);

  // Shared guard: the group is only live while neither failure condition
  // holds — this is what makes C1/C2 states absorbing (paper §4).
  auto alive_guard = [this](const spn::Marking& m) { return alive(m); };

  // Impulse: one eviction forces a GDH rekey of the affected group
  // (eviction_impulse_at: memoised when the factor memo is on).
  auto eviction_impulse = [this](const spn::Marking& m) {
    return eviction_impulse_at(m);
  };

  // T_CP: a trusted member is compromised at the attacker rate A(mc).
  net_.transition("T_CP")
      .input(tm_)
      .output(ucm_)
      .rate([this](const spn::Marking& m) { return attacker_rate_at(m); })
      .guard(alive_guard)
      .add();

  // T_IDS: a compromised-undetected node is caught by the voting IDS.
  net_.transition("T_IDS")
      .input(ucm_)
      .output(dcm_)
      .rate([this](const spn::Marking& m) {
        return static_cast<double>(m[ucm_]) * detection_rate_at(m) *
               (1.0 - voting_rates(m).pfn);
      })
      .guard(alive_guard)
      .impulse(eviction_impulse)
      .add();

  // T_FA: a trusted node is falsely accused and evicted.
  net_.transition("T_FA")
      .input(tm_)
      .output(dcm_)
      .rate([this](const spn::Marking& m) {
        return static_cast<double>(m[tm_]) * detection_rate_at(m) *
               voting_rates(m).pfp;
      })
      .guard(alive_guard)
      .impulse(eviction_impulse)
      .add();

  // T_DRQ: an undetected compromised member requests and obtains data —
  // host IDS misses with (detector-effective) probability p1 — and the
  // group leaks (C1).
  net_.transition("T_DRQ")
      .input(ucm_)
      .output(gf_)
      .rate([this](const spn::Marking& m) {
        return effective_p1(m[tm_], m[ucm_]) * params_.lambda_q *
               static_cast<double>(m[ucm_]);
      })
      .guard(alive_guard)
      .add();

  // Group birth–death (T_PAR / T_MER) when mobility supports partitions.
  if (params_.max_groups > 1) {
    net_.transition("T_PAR")
        .input(ng_)
        .output(ng_, 2)
        .rate([this](const spn::Marking& m) {
          const auto g = static_cast<std::size_t>(m[ng_]);
          return g < params_.partition_rates.size()
                     ? params_.partition_rates[g]
                     : 0.0;
        })
        .guard([this, alive_guard](const spn::Marking& m) {
          // Each group needs at least one member post-split.
          return alive_guard(m) && m[ng_] < params_.max_groups &&
                 m[tm_] + m[ucm_] > m[ng_];
        })
        .add();

    net_.transition("T_MER")
        .input(ng_, 2)
        .output(ng_)
        .rate([this](const spn::Marking& m) {
          const auto g = static_cast<std::size_t>(m[ng_]);
          return g < params_.merge_rates.size() ? params_.merge_rates[g]
                                                : 0.0;
        })
        .guard(alive_guard)
        .add();
  }
}

const spn::ReachabilityGraph& GcsSpnModel::graph() const {
  std::call_once(graph_once_, [this] {
    graph_ = std::make_unique<const spn::ReachabilityGraph>(
        spn::explore(net_));
  });
  return *graph_;
}

std::vector<double> GcsSpnModel::reliability_at(
    std::span<const double> times) const {
  // The θ-method integrator handles the stiff mission-length horizons
  // that uniformisation cannot (Λ·t up to ~1e8 at the paper's
  // parameters; see spn/reliability_ode.h).  propagate() validates the
  // times.
  if (times.empty()) return {};
  return spn::ReliabilityOde(graph())
      .propagate({}, times.back(), times)
      .survival_at;
}

Evaluation GcsSpnModel::evaluate() const {
  // A batch of one over the stored edge rates.  The arena is local: the
  // caller may be inside a sweep batch whose spans live in this thread's
  // scratch arena.
  const auto& g = graph();
  const spn::AbsorbingAnalyzer analyzer(g);
  util::Arena arena;
  auto rates = arena.make_span<double>(g.edges.size());
  auto impulses = arena.make_span<double>(g.edges.size());
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    rates[i] = g.edges[i].rate;
    impulses[i] = g.edges[i].impulse;
  }
  const GcsSpnModel* self = this;
  return evaluate_with_batch({&self, 1}, analyzer, rates, impulses,
                             spn::BatchSolveOptions{}.factor_reuse, arena)
      .front();
}

Evaluation GcsSpnModel::evaluate_reference() const {
  // The pre-SweepEngine per-point path: re-explore the net and make one
  // full-state reward pass per cost component.  Kept as the equivalence
  // oracle (tests, run_experiment --parity-check) and the naive baseline
  // (bench/bench_sweep).
  const auto graph = spn::explore(net_);
  const spn::AbsorbingAnalyzer analyzer(graph);
  const auto res = analyzer.solve();

  Evaluation ev;
  ev.num_states = graph.num_states();
  ev.solver_blocks = res.solver_blocks;
  ev.mttsf = res.mtta;

  ev.p_failure_c1 = analyzer.absorption_probability_where(
      res, [this](const spn::Marking& m) { return failed_c1(m); });
  ev.p_failure_c2 = analyzer.absorption_probability_where(
      res, [this](const spn::Marking& m) {
        return !failed_c1(m) && failed_c2(m);
      });

  // Accumulated cost components (hop-bits) over [0, MTTSF).
  auto accumulate = [&](double gcs::CostBreakdown::*member) {
    return analyzer.accumulated_rate_reward(
        res, [this, member](const spn::Marking& m) {
          return cost_rates(m).*member;
        });
  };
  const double acc_gc = accumulate(&gcs::CostBreakdown::group_comm);
  const double acc_status = accumulate(&gcs::CostBreakdown::status);
  const double acc_rekey = accumulate(&gcs::CostBreakdown::rekey);
  const double acc_ids = accumulate(&gcs::CostBreakdown::ids);
  const double acc_beacon = accumulate(&gcs::CostBreakdown::beacon);
  const double acc_pm = accumulate(&gcs::CostBreakdown::partition_merge);
  const double acc_evict = analyzer.accumulated_impulse_reward(res);

  if (ev.mttsf > 0.0) {
    ev.cost_rates.group_comm = acc_gc / ev.mttsf;
    ev.cost_rates.status = acc_status / ev.mttsf;
    ev.cost_rates.rekey = acc_rekey / ev.mttsf;
    ev.cost_rates.ids = acc_ids / ev.mttsf;
    ev.cost_rates.beacon = acc_beacon / ev.mttsf;
    ev.cost_rates.partition_merge = acc_pm / ev.mttsf;
    ev.eviction_cost_rate = acc_evict / ev.mttsf;
    ev.ctotal = ev.cost_rates.total() + ev.eviction_cost_rate;
  }
  return ev;
}

RewardSums& RewardSums::operator+=(const RewardSums& o) {
  cost.group_comm += o.cost.group_comm;
  cost.status += o.cost.status;
  cost.rekey += o.cost.rekey;
  cost.ids += o.cost.ids;
  cost.beacon += o.cost.beacon;
  cost.partition_merge += o.cost.partition_merge;
  eviction += o.eviction;
  p_c1 += o.p_c1;
  p_c2 += o.p_c2;
  return *this;
}

void RewardSums::normalise(Evaluation& ev) const {
  ev.p_failure_c1 = p_c1;
  ev.p_failure_c2 = p_c2;
  if (ev.mttsf > 0.0) {
    ev.cost_rates.group_comm = cost.group_comm / ev.mttsf;
    ev.cost_rates.status = cost.status / ev.mttsf;
    ev.cost_rates.rekey = cost.rekey / ev.mttsf;
    ev.cost_rates.ids = cost.ids / ev.mttsf;
    ev.cost_rates.beacon = cost.beacon / ev.mttsf;
    ev.cost_rates.partition_merge = cost.partition_merge / ev.mttsf;
    ev.eviction_cost_rate = eviction / ev.mttsf;
    ev.ctotal = ev.cost_rates.total() + ev.eviction_cost_rate;
  }
}

std::vector<RewardSums> accumulate_rewards(
    std::span<const GcsSpnModel* const> models,
    const spn::ReachabilityGraph& graph, std::span<const double> sojourn,
    std::span<const double> absorb_probability,
    std::span<const double> edge_rates,
    std::span<const double> edge_impulses) {
  const std::size_t P = models.size();
  const std::size_t n = graph.num_states();
  const std::size_t E = graph.edges.size();
  if (P == 0 || sojourn.size() != n * P ||
      absorb_probability.size() != n * P || edge_rates.size() != E * P ||
      edge_impulses.size() != E * P) {
    throw std::invalid_argument(
        "accumulate_rewards: spans must be state count (sojourn, absorb "
        "probability) or edge count (rates, impulses) x a non-empty batch");
  }

  // cost_rates(m) depends on the marking only through Tm+UCm (members)
  // and max(NG,1) (groups) — every other input is a model parameter.
  // Classing the states by that pair lets each point compute ONE
  // CostBreakdown per class (bitwise the per-state value, evaluated on
  // the class representative's marking) instead of one per state.
  const auto* m0 = models[0];
  const auto tm = m0->place_tm();
  const auto ucm = m0->place_ucm();
  const auto ng = m0->place_ng();
  std::vector<std::uint32_t> state_class(n);
  std::vector<std::uint32_t> class_rep;
  std::unordered_map<std::uint64_t, std::uint32_t> class_ids;
  for (std::size_t s = 0; s < n; ++s) {
    const auto& m = graph.states[s];
    const auto members = static_cast<std::uint64_t>(m[tm] + m[ucm]);
    const auto groups =
        static_cast<std::uint64_t>(std::max<std::int64_t>(m[ng], 1));
    const std::uint64_t key = (members << 16) | groups;
    const auto [it, inserted] =
        class_ids.try_emplace(key, static_cast<std::uint32_t>(class_rep.size()));
    if (inserted) class_rep.push_back(static_cast<std::uint32_t>(s));
    state_class[s] = it->second;
  }
  const std::size_t n_classes = class_rep.size();
  std::vector<gcs::CostBreakdown> class_cost(n_classes * P);
  std::vector<char> class_filled(n_classes * P, 0);

  std::vector<RewardSums> out(P);
  // State pass: rate-cost accumulation over transient mass and C1/C2
  // classification of absorbed mass — per point, states ascending, cost
  // components in member order.
  for (std::size_t s = 0; s < n; ++s) {
    const double* tau_row = sojourn.data() + s * P;
    const double* ap_row = absorb_probability.data() + s * P;
    const auto cls = static_cast<std::size_t>(state_class[s]);
    for (std::size_t p = 0; p < P; ++p) {
      auto& acc = out[p];
      const double tau = tau_row[p];
      if (tau > 0.0) {
        const std::size_t slot = cls * P + p;
        if (!class_filled[slot]) {
          class_cost[slot] =
              models[p]->cost_rates(graph.states[class_rep[cls]]);
          class_filled[slot] = 1;
        }
        const auto& c = class_cost[slot];
        acc.cost.group_comm += tau * c.group_comm;
        acc.cost.status += tau * c.status;
        acc.cost.rekey += tau * c.rekey;
        acc.cost.ids += tau * c.ids;
        acc.cost.beacon += tau * c.beacon;
        acc.cost.partition_merge += tau * c.partition_merge;
      }
      const double ap = ap_row[p];
      if (ap > 0.0) {
        if (models[p]->failed_c1(graph.states[s])) {
          acc.p_c1 += ap;
        } else if (models[p]->failed_c2(graph.states[s])) {
          acc.p_c2 += ap;
        }
      }
    }
  }

  // Impulse (eviction rekey) pass: edges in order, zero impulses
  // skipped, per point.
  for (std::size_t i = 0; i < E; ++i) {
    const double* imp_row = edge_impulses.data() + i * P;
    const double* rate_row = edge_rates.data() + i * P;
    const double* soj_row =
        sojourn.data() + static_cast<std::size_t>(graph.edges[i].src) * P;
    for (std::size_t p = 0; p < P; ++p) {
      if (imp_row[p] == 0.0) continue;
      out[p].eviction += soj_row[p] * rate_row[p] * imp_row[p];
    }
  }
  return out;
}

std::vector<Evaluation> evaluate_with_batch(
    std::span<const GcsSpnModel* const> models,
    const spn::AbsorbingAnalyzer& analyzer,
    std::span<const double> edge_rates, std::span<const double> edge_impulses,
    bool factor_reuse, util::Arena& arena) {
  // solve_batch validates the batch size and the rate span,
  // accumulate_rewards every span it reads.
  const std::size_t P = models.size();
  const auto& graph = analyzer.graph();
  spn::BatchSolveOptions sopts;
  sopts.factor_reuse = factor_reuse;
  const auto res = analyzer.solve_batch(edge_rates, P, sopts, &arena);
  const auto sums = accumulate_rewards(models, graph, res.sojourn,
                                       res.absorb_probability, edge_rates,
                                       edge_impulses);
  std::vector<Evaluation> out(P);
  for (std::size_t p = 0; p < P; ++p) {
    out[p].num_states = graph.num_states();
    out[p].solver_blocks = res.solver_blocks;
    out[p].mttsf = res.mtta[p];
    sums[p].normalise(out[p]);
  }
  return out;
}

}  // namespace midas::core
