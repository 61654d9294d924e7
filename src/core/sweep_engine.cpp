#include "core/sweep_engine.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>

#include "sim/thread_pool.h"
#include "util/arena.h"
#include "util/stopwatch.h"

namespace midas::core {

std::size_t SweepResult::argmax_mttsf() const {
  if (points.empty()) throw std::logic_error("empty sweep");
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].eval.mttsf > points[best].eval.mttsf) best = i;
  }
  return best;
}

std::size_t SweepResult::argmin_ctotal() const {
  if (points.empty()) throw std::logic_error("empty sweep");
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].eval.ctotal < points[best].eval.ctotal) best = i;
  }
  return best;
}

std::string structure_key(const Params& p) {
  std::ostringstream key;
  key.precision(17);
  // Initial marking and guard parameters.
  key << p.n_init << '|' << p.max_groups << '|' << p.byzantine_fraction;
  // Group birth–death tables: a zero entry removes the T_PAR/T_MER edge
  // at that group count, so the values are structural.  (Keying on exact
  // values also shares nothing between different mobility regimes, which
  // is the conservative choice.)
  key << '|';
  for (double r : p.partition_rates) key << r << ',';
  key << '|';
  for (double r : p.merge_rates) key << r << ',';
  // Zero-pattern of the remaining timed rates.  Attacker/detection shape
  // factors are >= 1 for every shape, so only the base factors matter:
  //   T_CP  ∝ λc,  T_DRQ ∝ p1·λq,  T_FA ∝ Pfp (> 0 iff p2 > 0 and a
  //   voter pool exists),  T_IDS ∝ 1−Pfn (m-dependent corner handled
  //   below).
  key << '|' << (p.lambda_c > 0.0) << (p.p1 * p.lambda_q > 0.0)
      << (p.p2 > 0.0) << (p.p1 < 1.0);
  // The T_IDS zero-pattern can depend on m: pfn hits exactly 1 in a
  // marking whenever the per-group good count is below the majority of
  // the effective voter pool min(m, pool).  In transient (alive)
  // markings with byzantine_fraction <= 1/2 the good count is >= the
  // bad count per group, which puts it at or above any such majority —
  // so the pattern is m-independent there.  Beyond 1/2 (and at the
  // p1/p2 corner cases, where probabilities can hit exact 0/1 in
  // m-dependent ways) stop sharing across m.
  if (p.byzantine_fraction > 0.5 || p.p1 <= 0.0 || p.p1 >= 1.0 ||
      p.p2 <= 0.0 || p.p2 >= 1.0) {
    key << '|' << p.num_voters;
  }
  // State-dependent detectors move the effective (p1,p2) per marking,
  // so the zero-pattern reasoning above no longer covers T_IDS/T_FA/
  // T_DRQ: key the full detector descriptor (plus m, since the
  // effective corner cases become m-dependent) and let only identical
  // detector configurations share a structure.  Static detectors add
  // nothing — their keys (and hence the sharing and the bitwise
  // results) are exactly the pre-plugin ones.
  if (p.detector.kind != ids::DetectorKind::Static) {
    key << '|' << ids::to_string(p.detector.kind) << ','
        << p.detector.entropy_weight << ',' << p.detector.cusum_gain << ','
        << p.detector.cusum_drift << ',' << p.detector.cusum_threshold << ','
        << p.detector.cusum_alarm_factor << ',' << p.detector.logistic_bias
        << ',' << p.detector.logistic_compromise_weight << ','
        << p.detector.logistic_time_weight << ',' << p.num_voters;
  }
  return key.str();
}

SweepEngine::SweepEngine(std::size_t threads) : threads_(threads) {}

void SweepEngine::explore_once(CacheEntry& entry, const GcsSpnModel& model) {
  std::call_once(entry.once, [&] {
    entry.graph = std::make_shared<const spn::ReachabilityGraph>(
        spn::explore(model.net()));
    entry.analyzer =
        std::make_unique<const spn::AbsorbingAnalyzer>(*entry.graph);
    std::lock_guard lock(stats_mutex_);
    ++stats_.explorations;
    stats_.states_explored += entry.graph->num_states();
  });
}

std::vector<Evaluation> SweepEngine::evaluate(std::span<const Params> points,
                                              std::size_t batch_width) {
  const util::Stopwatch watch;
  std::vector<Evaluation> evals(points.size());
  if (points.empty()) return evals;

  // Resolve cache entries serially (the map is not touched by workers).
  std::vector<CacheEntry*> entry_of(points.size(), nullptr);
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto& slot = cache_[structure_key(points[i])];
    if (!slot) slot = std::make_unique<CacheEntry>();
    entry_of[i] = slot.get();
  }

  // Chunk runs of consecutive points that share a structure into
  // batches of `batch_width` (a width <= 1 means batches of one) and
  // drive each through the point-major kernels.  Per-point results are
  // independent of the chunking (grouping-independence is a design
  // invariant of solve_batch's factor reuse), so shard boundaries and
  // ragged final batches cannot perturb a single bit.
  const std::size_t width = std::max<std::size_t>(batch_width, 1);
  struct BatchRange {
    std::size_t begin, end;
    CacheEntry* entry;
  };
  std::vector<BatchRange> batches;
  for (std::size_t i = 0; i < points.size();) {
    CacheEntry* entry = entry_of[i];
    std::size_t run_end = i + 1;
    while (run_end < points.size() && entry_of[run_end] == entry) {
      ++run_end;
    }
    for (std::size_t begin = i; begin < run_end; begin += width) {
      batches.push_back({begin, std::min(begin + width, run_end), entry});
    }
    i = run_end;
  }

  sim::parallel_for(
      batches.size(),
      [&](std::size_t bi) {
        const auto& bt = batches[bi];
        const std::size_t B = bt.end - bt.begin;
        // One private model per point (deque: GcsSpnModel is
        // immovable — it embeds a once_flag).
        std::deque<GcsSpnModel> models;
        for (std::size_t j = 0; j < B; ++j) {
          models.emplace_back(points[bt.begin + j]);
        }
        CacheEntry* entry = bt.entry;
        explore_once(*entry, models.front());
        // These models are batch-private, so the transcendental factor
        // memo is safe to turn on.
        std::vector<const GcsSpnModel*> model_ptrs(B);
        std::vector<const spn::PetriNet*> nets(B);
        for (std::size_t j = 0; j < B; ++j) {
          models[j].enable_factor_memo();
          model_ptrs[j] = &models[j];
          nets[j] = &models[j].net();
        }
        util::Arena& arena = util::thread_scratch_arena();
        arena.reset();
        const std::size_t E = entry->graph->edges.size();
        auto rates = arena.make_span<double>(E * B);
        auto impulses = arena.make_span<double>(E * B);
        entry->graph->compute_rates_batch(
            nets, rates, impulses, GcsSpnModel::batch_rate_fn(model_ptrs));
        const auto batch_evals = evaluate_with_batch(
            model_ptrs, *entry->analyzer, rates, impulses,
            spn::BatchSolveOptions{}.factor_reuse, arena);
        for (std::size_t j = 0; j < B; ++j) {
          evals[bt.begin + j] = batch_evals[j];
        }
        std::lock_guard lock(stats_mutex_);
        stats_.points += B;
        stats_.states_evaluated += entry->graph->num_states() * B;
      },
      threads_);

  stats_.seconds += watch.seconds();
  return evals;
}

}  // namespace midas::core
