#include "sim/protocol_sim.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "crypto/gdh.h"
#include "gcs/group_comm.h"
#include "gcs/view.h"
#include "ids/functions.h"
#include "manet/topology.h"
#include "sim/rng.h"

namespace midas::sim {

ProtocolSimParams ProtocolSimParams::small_defaults() {
  ProtocolSimParams p;
  p.model = core::Params::paper_defaults();
  p.model.n_init = 24;
  p.model.max_groups = 1;            // topology still partitions freely;
                                     // this only disables the SPN knob
  p.model.lambda_c = 1.0 / 1500.0;   // fast attacker → short trajectories
  p.model.t_ids = 60.0;
  p.mobility.field_radius_m = 300.0;
  p.radio_range_m = 160.0;
  return p;
}

namespace {

/// Per-node ground truth + local detector state.
struct Node {
  gcs::NodeId id = 0;
  bool compromised = false;
  bool evicted = false;
};

/// Uniform index in [0, n) from one stream draw.
std::size_t pick_index(UniformStream& draw, std::size_t n) {
  return static_cast<std::size_t>(draw() * static_cast<double>(n)) % n;
}

/// Fisher–Yates through the stream, so an antithetic pair mirrors the
/// voter selection order too (std::shuffle would consume raw generator
/// words the flipped stream cannot mirror).
template <typename T>
void stream_shuffle(std::vector<T>& v, UniformStream& draw) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[pick_index(draw, i)]);
  }
}

/// Poisson count by CDF inversion of a SINGLE uniform — monotone in u,
/// which is what makes the flipped pair member draw an antithetic
/// packet count.  Probabilities walk in LOG space: exp(-lambda)
/// underflows past lambda ≈ 745 (the early terms are genuinely
/// negligible there), while the terms near the mode are ~1/sqrt(lambda)
/// and accumulate fine in linear space — so the inversion stays correct
/// for any rate a spec can sweep to, not just the small per-tick means
/// of the defaults.  The cap guards the floating-point plateau where
/// the accumulated CDF rounds below u.
std::size_t poisson_inverse(double lambda, double u) {
  if (lambda <= 0.0) return 0;
  double log_p = -lambda;  // log P[X = 0]
  double cdf = std::exp(log_p);
  std::size_t k = 0;
  const auto cap = static_cast<std::size_t>(
      lambda + 40.0 * std::sqrt(lambda) + 100.0);
  while (u > cdf && k < cap) {
    ++k;
    log_p += std::log(lambda / static_cast<double>(k));
    cdf += std::exp(log_p);
  }
  return k;
}

}  // namespace

ProtocolSimResult run_protocol_sim(const ProtocolSimParams& params,
                                   std::uint64_t seed, bool antithetic) {
  params.model.validate();
  // Negated comparisons, so a NaN fails them too.
  if (!(params.tick_s > 0.0) ||
      !(params.topology_refresh_s >= params.tick_s)) {
    throw std::invalid_argument("run_protocol_sim: bad tick configuration");
  }
  if (!(params.radio_range_m > 0.0)) {
    throw std::invalid_argument("run_protocol_sim: bad radio_range_m");
  }
  if (!(params.max_time_s > 0.0)) {
    throw std::invalid_argument("run_protocol_sim: bad max_time_s");
  }

  const auto& mp = params.model;
  UniformStream draw(seed, antithetic);

  // Time-varying rates: the tick loop re-reads every rate each tick
  // anyway, so the schedule/mission enters as a per-tick pointer to the
  // active timeline segment's params (boundary granularity = one tick,
  // consistent with every other per-tick discretisation here).  The
  // constant case keeps `cur` = &mp itself: bitwise the legacy reads,
  // and no draw-sequence change either way since rate evaluation never
  // touches the stream.
  const bool timed = mp.time_varying();
  std::vector<core::TimelineSegment> timeline;
  std::size_t seg_idx = 0;
  const core::Params* cur = &mp;
  if (timed) {
    timeline = core::resolve_timeline(mp);
    cur = &timeline[0].params;
  }

  // --- Substrate instantiation.
  const auto n = static_cast<std::size_t>(mp.n_init);
  manet::RandomWaypointModel mobility(n, params.mobility, seed ^ 0x1);

  std::vector<Node> nodes(n);
  std::vector<gcs::NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].id = static_cast<gcs::NodeId>(i + 1);
    ids[i] = nodes[i].id;
  }

  crypto::GdhSession session(crypto::DhGroup::demo_group(), seed ^ 0x2);
  session.establish(ids);
  gcs::ViewManager view(ids);
  gcs::GroupChannel channel(view);

  ProtocolSimResult result;
  result.rekey_events = 1;  // initial agreement

  // --- Live topology statistics (refreshed periodically).
  double mean_hops = 1.0;
  auto refresh_topology = [&] {
    const manet::ConnectivityGraph graph(mobility.positions(),
                                         params.radio_range_m);
    const auto st = graph.stats();
    mean_hops = std::max(st.mean_hops, 1.0);
  };
  refresh_topology();

  const double vote_bits = mp.cost.vote_packet_bits;
  const double data_bits = mp.cost.data_packet_bits;
  const double key_bits = mp.cost.rekey.key_element_bits;

  auto charge_rekey = [&](std::uint64_t units) {
    result.traffic_hop_bits +=
        static_cast<double>(units) * key_bits * mean_hops;
    ++result.rekey_events;
  };

  auto live_members = [&] {
    std::size_t live = 0;
    for (const auto& node : nodes) live += node.evicted ? 0 : 1;
    return live;
  };
  auto undetected_compromised = [&] {
    std::size_t c = 0;
    for (const auto& node : nodes) {
      if (!node.evicted && node.compromised) ++c;
    }
    return c;
  };

  // Detector state as observed at the current instant; the effective
  // (p1,p2) feed every host-IDS draw below.  For the static detector
  // effective() returns mp.p1/mp.p2 themselves, so comparisons and draw
  // counts are bitwise the legacy ones.
  double now = 0.0;
  auto effective_rates = [&] {
    ids::DetectorState ds;
    ds.compromised = static_cast<std::int64_t>(undetected_compromised());
    ds.population = static_cast<std::int64_t>(live_members());
    ds.evicted = static_cast<std::int64_t>(mp.n_init) - ds.population;
    ds.elapsed_s = now;
    return mp.detector.effective(cur->p1, cur->p2, ds);
  };

  // Scratch of the helpers below, refilled on every call so a trajectory
  // allocates it once.
  std::vector<Node*> pick_pool;
  std::vector<std::size_t> live_idx;
  std::vector<std::size_t> to_evict;
  std::vector<std::size_t> voters;

  // Index helpers over the live population.
  auto pick_live = [&](auto pred) -> Node* {
    pick_pool.clear();
    for (auto& node : nodes) {
      if (!node.evicted && pred(node)) pick_pool.push_back(&node);
    }
    if (pick_pool.empty()) return nullptr;
    return pick_pool[pick_index(draw, pick_pool.size())];
  };

  // --- Voting round: every live member is evaluated by m voters.
  auto ids_round = [&] {
    // One detector evaluation per round: every voter in the round works
    // from the same alert level (pure arithmetic — no stream draws, so
    // CRN/antithetic pairing is untouched).
    const auto eff = effective_rates();
    // Snapshot the live membership first: evictions within the round
    // must not change the voter pool mid-iteration.
    live_idx.clear();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!nodes[i].evicted) live_idx.push_back(i);
    }
    to_evict.clear();
    for (const std::size_t target : live_idx) {
      if (live_idx.size() < 2) break;
      // Draw up to m distinct voters (excluding the target).
      voters.clear();
      for (const std::size_t cand : live_idx) {
        if (cand != target) voters.push_back(cand);
      }
      stream_shuffle(voters, draw);
      const auto m_eff = std::min<std::size_t>(
          static_cast<std::size_t>(mp.num_voters), voters.size());
      std::size_t negative = 0;
      for (std::size_t v = 0; v < m_eff; ++v) {
        const Node& voter = nodes[voters[v]];
        const Node& subject = nodes[target];
        bool vote_evict;
        if (voter.compromised) {
          vote_evict = !subject.compromised;  // collusion
        } else if (subject.compromised) {
          vote_evict = draw() >= eff.p1;      // miss w.p. effective p1
        } else {
          vote_evict = draw() < eff.p2;       // false alarm w.p. eff. p2
        }
        negative += vote_evict ? 1 : 0;
        ++result.vote_messages;
        result.traffic_hop_bits += vote_bits * mean_hops;
      }
      if (negative >= m_eff / 2 + 1) to_evict.push_back(target);
    }
    for (const std::size_t idx : to_evict) {
      Node& victim = nodes[idx];
      if (victim.evicted) continue;
      victim.evicted = true;
      if (victim.compromised) {
        ++result.true_evictions;
      } else {
        ++result.false_evictions;
      }
      session.reset_traffic();
      session.leave(victim.id);
      result.keys_always_agreed =
          result.keys_always_agreed && session.keys_agree();
      view.evict(victim.id);
      charge_rekey(session.traffic().units);
    }
  };

  // --- Main loop.  (`now` is declared above effective_rates, which
  // reads it.)
  double next_topology = params.topology_refresh_s;
  double next_ids_round = cur->t_ids;
  // Bursty attacker phase; other kinds never draw for it, keeping the
  // legacy per-tick draw sequence.
  bool atk_on = true;

  while (now < params.max_time_s) {
    while (timed && seg_idx + 1 < timeline.size() &&
           now >= timeline[seg_idx + 1].start_s) {
      ++seg_idx;
      cur = &timeline[seg_idx].params;
    }
    const double live = static_cast<double>(live_members());
    const double bad = static_cast<double>(undetected_compromised());

    // Failure conditions, checked before advancing.
    if (live == 0.0 ||
        bad > mp.byzantine_fraction * live + 1e-9) {
      result.ttsf = now;
      result.failed_by_c1 = false;
      return result;
    }

    now += params.tick_s;
    mobility.step(params.tick_s);
    if (now >= next_topology) {
      refresh_topology();
      next_topology += params.topology_refresh_s;
    }

    // Attacker: thinning of the A(mc) hazard.  mc follows the model's
    // configured progress metric.
    double mc;
    if (mp.attacker_progress == core::AttackerProgress::CampaignProgress) {
      mc = 1.0 + static_cast<double>(mp.n_init) - live;
    } else {
      const double tm = live - bad;
      mc = tm > 0.0 ? live / tm : 1.0;
    }
    const double attack_rate =
        ids::attacker_rate(cur->attacker_shape, cur->lambda_c, mc,
                           cur->p_index);
    // Bursty modulation: one extra thinning draw per tick flips the
    // on/off phase (gated on the kind, so other attackers keep the
    // legacy draw sequence).
    if (mp.attacker.kind == AttackerKind::Bursty &&
        draw() < -std::expm1(-mp.attacker.phase_rate(atk_on) *
                             params.tick_s)) {
      atk_on = !atk_on;
    }
    // Arrival thinning at the kind's event rate (poisson: the base rate
    // itself, bitwise); coordinated arrivals compromise up to
    // batch_size() victims at once.
    const double arrival_rate = mp.attacker.event_rate(attack_rate, atk_on);
    if (draw() < -std::expm1(-arrival_rate * params.tick_s)) {
      const std::int64_t batch = mp.attacker.batch_size();
      for (std::int64_t b = 0; b < batch; ++b) {
        Node* victim =
            pick_live([](const Node& x) { return !x.compromised; });
        if (victim == nullptr) break;
        victim->compromised = true;
        ++result.compromises;
      }
    }

    // Data-plane traffic: each live member multicasts at λq; a
    // compromised member's request leaks data if the serving node's
    // host IDS misses (probability p1) — condition C1.
    const double expected_sends = live * cur->lambda_q * params.tick_s;
    const std::size_t packets = poisson_inverse(expected_sends, draw());
    for (std::size_t pk = 0; pk < packets; ++pk) {
      ++result.data_messages;
      result.traffic_hop_bits += data_bits * live * mean_hops;
      // Which member sent this one?  A compromised sender leaks iff the
      // serving host IDS misses at the detector's CURRENT effective p1.
      const bool sender_compromised = draw() < bad / live;
      if (sender_compromised && draw() < effective_rates().p1) {
        result.ttsf = now;
        result.failed_by_c1 = true;
        return result;
      }
    }

    // IDS rounds: the concrete protocol runs PERIODICALLY with the
    // interval shrunk by the detection function (1/D(md)) — this is the
    // deterministic-interval reality the SPN approximates with an
    // exponential rate.
    if (now >= next_ids_round) {
      ids_round();
      const double md =
          std::max(1.0, static_cast<double>(mp.n_init) /
                            std::max(1.0, static_cast<double>(live_members())));
      const double d = ids::detection_rate(cur->detection_shape, cur->t_ids,
                                           md, cur->p_index);
      next_ids_round = now + 1.0 / std::max(d, 1e-9);
    }
  }

  result.ttsf = params.max_time_s;
  result.timed_out = true;
  return result;
}

}  // namespace midas::sim
