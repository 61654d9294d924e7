#include "core/structure_plan.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "ids/functions.h"
#include "util/lanes.h"

namespace midas::core {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Bitwise equality of what the cost model reads besides D and m: its
/// parameters, λq, λ, μ and the group tables.  Two such points share
/// every class's eviction impulse and every cost component but ids.
bool same_cost_inputs(const Params& a, const Params& b) {
  static_assert(sizeof(gcs::CostParams) == 12 * sizeof(double),
                "CostParams is compared as 12 doubles");
  return std::memcmp(&a.cost, &b.cost, sizeof a.cost) == 0 &&
         same_bits(a.lambda_q, b.lambda_q) &&
         same_bits(a.lambda_join, b.lambda_join) &&
         same_bits(a.mu_leave, b.mu_leave) && a.n_init == b.n_init &&
         a.max_groups == b.max_groups &&
         same_bits(a.partition_rates, b.partition_rates) &&
         same_bits(a.merge_rates, b.merge_rates);
}

}  // namespace

StructurePlan::StructurePlan(const GcsSpnModel& model,
                             const spn::ReachabilityGraph& graph)
    : graph_(graph),
      state_dependent_(model.params().detector.state_dependent()),
      byzantine_fraction_(model.params().byzantine_fraction) {
  const spn::PetriNet& net = model.net();
  const std::size_t n = graph.num_states();

  // Roles per transition, then per edge.
  std::vector<Role> role_of(net.num_transitions());
  std::vector<char> known(net.num_transitions(), 0);
  const auto assign = [&](const char* name, Role r) {
    if (const auto t = net.find_transition(name)) {
      role_of[*t] = r;
      known[*t] = 1;
    }
  };
  assign("T_CP", Role::CP);
  assign("T_IDS", Role::IDS);
  assign("T_FA", Role::FA);
  assign("T_DRQ", Role::DRQ);
  assign("T_PAR", Role::PAR);
  assign("T_MER", Role::MER);
  roles_.resize(graph.edges.size());
  for (std::size_t i = 0; i < graph.edges.size(); ++i) {
    const auto t = graph.edges[i].transition;
    if (t >= known.size() || !known[t]) {
      throw std::invalid_argument(
          "StructurePlan: edge " + std::to_string(i) +
          " fires a transition that is not part of the GCS model");
    }
    roles_[i] = role_of[t];
  }

  // Pass 1, per state: the token counts, the absorbing kind and the
  // bounds of the key grids.
  features_.resize(n);
  absorbing_.resize(n);
  std::int32_t max_tm = 0;
  std::int32_t max_ucm = 0;
  std::int32_t max_members = 0;
  std::int32_t max_ng = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const spn::Marking& m = graph.states[s];
    auto& f = features_[s];
    f.tm = m[model.place_tm()];
    f.ucm = m[model.place_ucm()];
    f.ng = m[model.place_ng()];
    if (f.tm < 0 || f.ucm < 0 || f.ng < 0) {
      throw std::invalid_argument("StructurePlan: marking " + m.to_string() +
                                  " has a negative token count");
    }
    max_tm = std::max(max_tm, f.tm);
    max_ucm = std::max(max_ucm, f.ucm);
    max_members = std::max(max_members, f.tm + f.ucm);
    max_ng = std::max(max_ng, f.ng);
    absorbing_[s] = model.failed_c1(m)   ? Absorbing::C1
                    : model.failed_c2(m) ? Absorbing::C2
                                         : Absorbing::No;
  }
  max_groups_ = static_cast<std::size_t>(std::max(max_ng, 1));
  member_slots_ = static_cast<std::size_t>(max_members) + 1;
  ng_slots_ = static_cast<std::size_t>(max_ng) + 1;

  // Pass 2, per transient state: number the attacker keys (T_CP, and
  // T_DRQ under a state-dependent detector) and the voting keys (T_IDS,
  // T_FA) in order of first use, on flat grids over the token counts,
  // and note the members and classes the costs are read at.
  constexpr std::uint32_t kUnset = UINT32_MAX;
  const std::size_t ucm_slots = static_cast<std::size_t>(max_ucm) + 1;
  const std::size_t tu_slots = (static_cast<std::size_t>(max_tm) + 1) *
                               ucm_slots;
  std::vector<std::uint32_t> attacker_id(tu_slots, kUnset);
  std::vector<std::int64_t> attacker_spent;  // UCm+DCm per attacker key
  std::vector<std::uint32_t> voting_id(
      state_dependent_ ? tu_slots * max_groups_ : tu_slots, kUnset);
  std::vector<char> member_seen(member_slots_, 0);
  std::vector<char> class_seen(member_slots_ * max_groups_, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t begin = graph.edge_offsets[s];
    const std::uint32_t end = graph.edge_offsets[s + 1];
    if (begin == end) continue;  // absorbing: no rates, no costs
    auto& f = features_[s];
    member_seen[static_cast<std::size_t>(f.tm + f.ucm)] = 1;
    class_seen[class_of(f)] = 1;
    bool attacker = false;
    bool voting = false;
    for (std::uint32_t i = begin; i < end; ++i) {
      const Role r = roles_[i];
      attacker = attacker || r == Role::CP ||
                 (state_dependent_ && r == Role::DRQ);
      voting = voting || r == Role::IDS || r == Role::FA;
    }
    const std::size_t tu = static_cast<std::size_t>(f.tm) * ucm_slots +
                           static_cast<std::size_t>(f.ucm);
    if (attacker) {
      // mc reads UCm+DCm under campaign progress.  Tm+UCm+DCm+GF is
      // conserved and GF is 0 wherever T_CP or T_DRQ fires, so (Tm, UCm)
      // fixes it; a marking that breaks this is refused.
      const spn::Marking& m = graph.states[s];
      const std::int64_t spent =
          std::int64_t{m[model.place_ucm()]} + m[model.place_dcm()];
      std::uint32_t& id = attacker_id[tu];
      if (id == kUnset) {
        id = static_cast<std::uint32_t>(attacker_counts_.size());
        attacker_counts_.emplace_back(f.tm, f.ucm);
        attacker_spent.push_back(spent);
        mc_ratio_.push_back(GcsSpnModel::mc_of(
            AttackerProgress::CompromiseRatio, f.tm, f.ucm,
            m[model.place_dcm()]));
        mc_campaign_.push_back(GcsSpnModel::mc_of(
            AttackerProgress::CampaignProgress, f.tm, f.ucm,
            m[model.place_dcm()]));
      } else if (attacker_spent[id] != spent) {
        throw std::invalid_argument(
            "StructurePlan: marking " + m.to_string() +
            " shares (Tm, UCm) with a marking of another UCm+DCm");
      }
      f.attacker = id;
    }
    if (voting) {
      const std::int64_t groups = std::max(f.ng, 1);
      const std::int64_t g_tm = GcsSpnModel::per_group(f.tm, groups);
      const std::int64_t g_ucm = GcsSpnModel::per_group(f.ucm, groups);
      std::uint32_t& id =
          voting_id[state_dependent_
                        ? tu * max_groups_ + static_cast<std::size_t>(groups - 1)
                        : static_cast<std::size_t>(g_tm) * ucm_slots +
                              static_cast<std::size_t>(g_ucm)];
      if (id == kUnset) {
        id = static_cast<std::uint32_t>(voting_keys_.size());
        voting_keys_.push_back({f.tm, f.ucm, static_cast<std::int32_t>(groups),
                                static_cast<std::int32_t>(g_tm),
                                static_cast<std::int32_t>(g_ucm)});
      }
      f.voting = id;
    }
  }
  for (std::size_t k = 0; k < member_slots_; ++k) {
    if (!member_seen[k]) continue;
    members_.push_back(static_cast<std::int32_t>(k));
    md_.push_back(model.md_of(static_cast<std::int64_t>(k)));
  }
  for (std::size_t c = 0; c < class_seen.size(); ++c) {
    if (class_seen[c]) classes_.push_back(static_cast<std::uint32_t>(c));
  }
}

void StructurePlan::check_models(
    std::span<const GcsSpnModel* const> models) const {
  if (models.empty()) {
    throw std::invalid_argument("StructurePlan: empty model batch");
  }
  for (std::size_t p = 0; p < models.size(); ++p) {
    const Params& pr = models[p]->params();
    if (pr.detector.state_dependent() != state_dependent_ ||
        !same_bits(pr.byzantine_fraction, byzantine_fraction_)) {
      throw std::invalid_argument(
          "StructurePlan: batch point " + std::to_string(p) +
          " differs from the plan's structure in its detector or its "
          "Byzantine fraction");
    }
  }
}

void StructurePlan::rate(std::span<const GcsSpnModel* const> models,
                         std::span<double> rates,
                         std::span<double> impulses) const {
  check_models(models);
  const std::size_t P = models.size();
  const std::size_t E = graph_.edges.size();
  if (rates.size() != E * P || impulses.size() != E * P) {
    throw std::invalid_argument(
        "StructurePlan::rate: output spans must be edge count x batch size");
  }

  // Per-point tables, [key][point] so that a state's P lanes are
  // contiguous.  A column whose inputs equal the previous point's is
  // copied: a TIDS batch shares its attacker and voting columns.  The
  // tables are freed on return, so they add nothing to a worker's
  // retained scratch.
  const std::size_t n_atk = mc_ratio_.size();
  const std::size_t n_vote = voting_keys_.size();
  const std::size_t n_drq = state_dependent_ ? n_atk : 1;
  const std::size_t total =
      P * (member_slots_ * (1 + max_groups_) + n_atk + 2 * n_vote + n_drq +
           2 * ng_slots_);
  const auto storage = std::make_unique_for_overwrite<double[]>(total);
  double* next = storage.get();
  const auto carve = [&](std::size_t rows) {
    const std::span<double> table(next, rows * P);
    next += rows * P;
    return table;
  };
  const auto det = carve(member_slots_);                 // D(md)
  const auto atk = carve(n_atk);                         // A(mc)
  const auto not_fn = carve(n_vote);                     // 1 − Pfn
  const auto fp = carve(n_vote);                         // Pfp
  const auto drq = carve(n_drq);                         // p1_eff·λq
  const auto evict = carve(member_slots_ * max_groups_);  // per class
  const auto par = carve(ng_slots_);
  const auto mer = carve(ng_slots_);
  for (std::size_t p = 0; p < P; ++p) {
    const GcsSpnModel& mod = *models[p];
    const Params& pr = mod.params();
    const Params* prev = p > 0 ? &models[p - 1]->params() : nullptr;

    if (prev != nullptr && prev->detection_shape == pr.detection_shape &&
        same_bits(prev->t_ids, pr.t_ids) &&
        same_bits(prev->p_index, pr.p_index)) {
      for (const auto k : members_) det[k * P + p] = det[k * P + p - 1];
    } else {
      for (std::size_t j = 0; j < members_.size(); ++j) {
        det[static_cast<std::size_t>(members_[j]) * P + p] =
            ids::detection_rate(pr.detection_shape, pr.t_ids, md_[j],
                                pr.p_index);
      }
    }

    if (prev != nullptr && prev->attacker_shape == pr.attacker_shape &&
        same_bits(prev->lambda_c, pr.lambda_c) &&
        same_bits(prev->p_index, pr.p_index) &&
        prev->attacker_progress == pr.attacker_progress) {
      for (std::size_t k = 0; k < n_atk; ++k) {
        atk[k * P + p] = atk[k * P + p - 1];
      }
    } else {
      const auto& mc = pr.attacker_progress == AttackerProgress::CampaignProgress
                           ? mc_campaign_
                           : mc_ratio_;
      for (std::size_t k = 0; k < n_atk; ++k) {
        atk[k * P + p] = ids::attacker_rate(pr.attacker_shape, pr.lambda_c,
                                            mc[k], pr.p_index);
      }
    }

    const bool same_voting =
        prev != nullptr &&
        (state_dependent_
             ? prev->detector == pr.detector && same_bits(prev->p1, pr.p1) &&
                   same_bits(prev->p2, pr.p2) &&
                   prev->num_voters == pr.num_voters
             : models[p - 1]->voting_.get() == mod.voting_.get());
    for (std::size_t k = 0; k < n_vote; ++k) {
      if (same_voting) {
        not_fn[k * P + p] = not_fn[k * P + p - 1];
        fp[k * P + p] = fp[k * P + p - 1];
        continue;
      }
      const VotingKey& v = voting_keys_[k];
      const ids::VotingErrorRates r =
          mod.voting_rates_keyed(v.tm, v.ucm, v.groups, v.g_tm, v.g_ucm);
      not_fn[k * P + p] = 1.0 - r.pfn;
      fp[k * P + p] = r.pfp;
    }

    if (!state_dependent_) {
      // A static detector's effective p1 is p1 in every marking.
      drq[p] = pr.p1 * pr.lambda_q;
    } else if (prev != nullptr && prev->detector == pr.detector &&
               same_bits(prev->p1, pr.p1) && same_bits(prev->p2, pr.p2) &&
               same_bits(prev->lambda_q, pr.lambda_q)) {
      for (std::size_t k = 0; k < n_drq; ++k) {
        drq[k * P + p] = drq[k * P + p - 1];
      }
    } else {
      // The attacker keys are the (Tm, UCm) pairs effective_p1 reads.
      for (std::size_t k = 0; k < n_drq; ++k) {
        drq[k * P + p] = mod.effective_p1(attacker_counts_[k].first,
                                          attacker_counts_[k].second) *
                         pr.lambda_q;
      }
    }

    const bool same_cost = prev != nullptr && same_cost_inputs(*prev, pr);
    for (const auto c : classes_) {
      evict[c * P + p] = same_cost ? evict[c * P + p - 1]
                                   : mod.eviction_impulse_keyed(
                                         static_cast<std::int64_t>(
                                             c / max_groups_),
                                         static_cast<std::int64_t>(
                                             c % max_groups_) + 1);
    }
    for (std::size_t g = 0; g < ng_slots_; ++g) {
      par[g * P + p] =
          g < pr.partition_rates.size() ? pr.partition_rates[g] : 0.0;
      mer[g * P + p] = g < pr.merge_rates.size() ? pr.merge_rates[g] : 0.0;
    }
  }

  // The gather: per state its features, per edge its role, per lane
  // the clamp (PetriNet::rate's r > 0 ? r : 0), the path probability
  // and the re-rate check, fused.
  const std::size_t drq_stride = state_dependent_ ? 1 : 0;
  util::with_lanes(P, [&](auto W) __attribute__((always_inline)) {
    const auto clamp = [](double r) { return r > 0.0 ? r : 0.0; };
    for (std::size_t s = 0; s < features_.size(); ++s) {
      const std::uint32_t begin = graph_.edge_offsets[s];
      const std::uint32_t end = graph_.edge_offsets[s + 1];
      if (begin == end) continue;
      const StateFeatures& f = features_[s];
      const auto tm = static_cast<double>(f.tm);
      const auto ucm = static_cast<double>(f.ucm);
      const double* d = det.data() + static_cast<std::size_t>(f.tm + f.ucm) * W;
      const double* a = atk.data() + std::size_t{f.attacker} * W;
      const double* q = not_fn.data() + std::size_t{f.voting} * W;
      const double* v = fp.data() + std::size_t{f.voting} * W;
      const double* pq = drq.data() + std::size_t{f.attacker} * drq_stride * W;
      const double* ev = evict.data() + class_of(f) * W;
      const double* pa = par.data() + static_cast<std::size_t>(f.ng) * W;
      const double* me = mer.data() + static_cast<std::size_t>(f.ng) * W;
      for (std::uint32_t i = begin; i < end; ++i) {
        const spn::Edge& e = graph_.edges[i];
        const double prob = e.prob;
        const double vi = e.vanishing_impulse;
        const double no_impulse = 0.0 + vi;
        double* r = rates.data() + std::size_t{i} * W;
        double* im = impulses.data() + std::size_t{i} * W;
        bool bad = false;
        const Role role = roles_[i];
        if (role == Role::IDS || role == Role::FA) {
          // UCm·D·(1 − Pfn) and Tm·D·Pfp, with the eviction impulse.
          const double count = role == Role::IDS ? ucm : tm;
          const double* vote = role == Role::IDS ? q : v;
          for (std::size_t p = 0; p < W; ++p) {
            r[p] = clamp(count * d[p] * vote[p]) * prob;
            im[p] = ev[p] + vi;
            bad |= r[p] <= 0.0;
          }
        } else if (role == Role::DRQ) {
          for (std::size_t p = 0; p < W; ++p) {
            r[p] = clamp(pq[p] * ucm) * prob;
            im[p] = no_impulse;
            bad |= r[p] <= 0.0;
          }
        } else {
          // T_CP, T_PAR, T_MER: the table value itself.
          const double* x = role == Role::CP ? a : role == Role::PAR ? pa : me;
          for (std::size_t p = 0; p < W; ++p) {
            r[p] = clamp(x[p]) * prob;
            im[p] = no_impulse;
            bad |= r[p] <= 0.0;
          }
        }
        if (bad) {
          std::size_t p = 0;
          while (!(r[p] <= 0.0)) ++p;
          throw spn::rerate_error(
              "StructurePlan::rate", graph_, i,
              models[p]->net().transition_name(e.transition), r[p], p);
        }
      }
    }
  });
}

std::vector<gcs::CostBreakdown> StructurePlan::class_costs(
    std::span<const GcsSpnModel* const> models) const {
  const std::size_t P = models.size();
  std::vector<gcs::CostBreakdown> out(member_slots_ * max_groups_ * P);
  std::vector<double> det(member_slots_);
  for (std::size_t p = 0; p < P; ++p) {
    const GcsSpnModel& mod = *models[p];
    const Params& pr = mod.params();
    // A point whose cost inputs repeat the previous point's copies its
    // classes and recomputes only the ids component.
    const bool same_cost =
        p > 0 && same_cost_inputs(models[p - 1]->params(), pr);
    for (std::size_t j = 0; j < members_.size(); ++j) {
      det[static_cast<std::size_t>(members_[j])] = ids::detection_rate(
          pr.detection_shape, pr.t_ids, md_[j], pr.p_index);
    }
    for (const auto c : classes_) {
      const auto members = static_cast<std::int64_t>(c / max_groups_);
      const auto groups = static_cast<std::int64_t>(c % max_groups_) + 1;
      const double d = det[static_cast<std::size_t>(members)];
      if (same_cost) {
        out[c * P + p] = out[c * P + p - 1];
        out[c * P + p].ids = mod.ids_cost_keyed(members, groups, d);
      } else {
        out[c * P + p] = mod.cost_rates_keyed(members, groups, d);
      }
    }
  }
  return out;
}

std::vector<RewardSums> accumulate_rewards(
    std::span<const GcsSpnModel* const> models, const StructurePlan& plan,
    std::span<const double> sojourn,
    std::span<const double> absorb_probability,
    std::span<const double> edge_rates,
    std::span<const double> edge_impulses) {
  const std::size_t P = models.size();
  const auto& graph = plan.graph();
  const std::size_t n = graph.num_states();
  const std::size_t E = graph.edges.size();
  if (P == 0 || sojourn.size() != n * P ||
      absorb_probability.size() != n * P || edge_rates.size() != E * P ||
      edge_impulses.size() != E * P) {
    throw std::invalid_argument(
        "accumulate_rewards: spans must be state count (sojourn, absorb "
        "probability) or edge count (rates, impulses) x a non-empty batch");
  }
  plan.check_models(models);

  const auto class_cost = plan.class_costs(models);
  using Plan = StructurePlan;

  std::vector<RewardSums> out(P);
  // State pass: rate-cost accumulation over transient mass and C1/C2
  // classification of absorbed mass — per point, states ascending, cost
  // components in member order.
  util::with_lanes(P, [&](auto W) __attribute__((always_inline)) {
    for (std::size_t s = 0; s < n; ++s) {
      const double* tau_row = sojourn.data() + s * W;
      const double* ap_row = absorb_probability.data() + s * W;
      const gcs::CostBreakdown* cost =
          class_cost.data() + plan.class_of(plan.features_[s]) * W;
      const Plan::Absorbing kind = plan.absorbing_[s];
      for (std::size_t p = 0; p < W; ++p) {
        auto& acc = out[p];
        const double tau = tau_row[p];
        if (tau > 0.0) {
          const auto& c = cost[p];
          acc.cost.group_comm += tau * c.group_comm;
          acc.cost.status += tau * c.status;
          acc.cost.rekey += tau * c.rekey;
          acc.cost.ids += tau * c.ids;
          acc.cost.beacon += tau * c.beacon;
          acc.cost.partition_merge += tau * c.partition_merge;
        }
        const double ap = ap_row[p];
        if (ap > 0.0) {
          if (kind == Plan::Absorbing::C1) {
            acc.p_c1 += ap;
          } else if (kind == Plan::Absorbing::C2) {
            acc.p_c2 += ap;
          }
        }
      }
    }
  });

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
    const spn::AbsorbingAnalyzer& analyzer, const StructurePlan& plan,
    std::span<const double> edge_rates, std::span<const double> edge_impulses,
    bool factor_reuse, util::Arena& arena) {
  // solve_batch validates the batch size and the rate span,
  // accumulate_rewards every span it reads.
  const std::size_t P = models.size();
  const auto& graph = analyzer.graph();
  if (&graph != &plan.graph()) {
    throw std::invalid_argument(
        "evaluate_with_batch: the analyzer and the plan must share one graph");
  }
  spn::BatchSolveOptions sopts;
  sopts.factor_reuse = factor_reuse;
  const auto res = analyzer.solve_batch(edge_rates, P, sopts, &arena);
  const auto sums = accumulate_rewards(models, plan, res.sojourn,
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
