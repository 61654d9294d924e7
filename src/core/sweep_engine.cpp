#include "core/sweep_engine.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <deque>
#include <stdexcept>

#include "core/mission.h"
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

namespace {

/// The text std::ostream writes at precision 17 (doubles as "%.17g",
/// bools as 0/1), built without a stream: structure_key runs once per
/// grid point.
struct KeyWriter {
  std::string out;

  KeyWriter& operator<<(double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                   std::chars_format::general, 17);
    out.append(buf, res.ptr);
    return *this;
  }
  KeyWriter& operator<<(std::int64_t v) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }
  KeyWriter& operator<<(std::int32_t v) {
    return *this << static_cast<std::int64_t>(v);
  }
  KeyWriter& operator<<(bool v) {
    out += v ? '1' : '0';
    return *this;
  }
  KeyWriter& operator<<(char c) {
    out += c;
    return *this;
  }
  KeyWriter& operator<<(const char* text) {
    out += text;
    return *this;
  }
};

}  // namespace

std::string structure_key(const Params& p) {
  KeyWriter key;
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
  return key.out;
}

const spn::AbsorbingAnalyzer& ExploredStructure::analyzer() const {
  std::call_once(analyzed_, [this] {
    analyzer_ = std::make_unique<const spn::AbsorbingAnalyzer>(*graph_);
  });
  return *analyzer_;
}

SweepEngine::SweepEngine(std::size_t threads) : threads_(threads) {}

const ExploredStructure& SweepEngine::structure(const std::string& key,
                                                const GcsSpnModel& model) {
  std::unique_lock lock(mutex_);
  auto& slot = cache_[key];
  if (!slot) slot = std::make_unique<ExploredStructure>();
  ExploredStructure& entry = *slot;
  lock.unlock();  // other keys explore meanwhile
  std::call_once(entry.explored_, [&] {
    entry.graph_ = std::make_unique<const spn::ReachabilityGraph>(
        spn::explore(model.net()));
    entry.plan_ = std::make_unique<const StructurePlan>(model, *entry.graph_);
    std::lock_guard stats_lock(mutex_);
    ++stats_.explorations;
  });
  return entry;
}

std::vector<Evaluation> SweepEngine::evaluate(std::span<const Params> points,
                                              std::size_t batch_width) {
  const util::Stopwatch watch;
  std::vector<Evaluation> evals(points.size());
  if (points.empty()) return evals;

  // One pass cuts the points into tasks: runs of consecutive constant
  // points that share a structure, chunked into batches of
  // `batch_width` (a width <= 1 means batches of one), and one task per
  // phased point.  A time-varying point whose timeline is one segment
  // solves that segment's parameters as a constant point.  Per-point
  // results are independent of the chunking (grouping-independence is a
  // design invariant of solve_batch's factor reuse), so shard
  // boundaries and ragged final batches cannot perturb a single bit.
  const std::size_t width = std::max<std::size_t>(batch_width, 1);
  std::vector<const Params*> constant(points.size());  // null: phased
  std::deque<Params> segment_params;                  // stable addresses
  std::vector<std::string> keys(points.size());
  struct Task {
    std::size_t begin, end;
  };
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < points.size(); ++i) {
    constant[i] = &points[i];
    if (points[i].time_varying()) {
      auto timeline = resolve_timeline(points[i]);
      constant[i] = timeline.size() > 1 ? nullptr
                                        : &segment_params.emplace_back(
                                              std::move(timeline[0].params));
    }
    if (constant[i] != nullptr) keys[i] = structure_key(*constant[i]);
    const bool joins = constant[i] != nullptr && i > 0 &&
                       constant[i - 1] != nullptr && keys[i] == keys[i - 1] &&
                       tasks.back().end - tasks.back().begin < width;
    if (joins) {
      ++tasks.back().end;
    } else {
      tasks.push_back({i, i + 1});
    }
  }

  sim::parallel_for(
      tasks.size(),
      [&](std::size_t ti) {
        const auto [begin, end] = tasks[ti];
        const std::size_t B = end - begin;
        if (constant[begin] == nullptr) {
          evals[begin] = MissionAnalyzer(points[begin], *this).evaluate();
        } else {
          // One private model per point (deque: GcsSpnModel is
          // immovable — it embeds a once_flag).
          std::deque<GcsSpnModel> models;
          for (std::size_t j = begin; j < end; ++j) {
            models.emplace_back(*constant[j]);
          }
          const ExploredStructure& s = structure(keys[begin], models.front());
          std::vector<const GcsSpnModel*> model_ptrs(B);
          for (std::size_t j = 0; j < B; ++j) model_ptrs[j] = &models[j];
          util::Arena& arena = util::thread_scratch_arena();
          arena.reset();
          const std::size_t E = s.graph().edges.size();
          auto rates = arena.make_span<double>(E * B);
          auto impulses = arena.make_span<double>(E * B);
          s.plan().rate(model_ptrs, rates, impulses);
          const auto batch_evals = evaluate_with_batch(
              model_ptrs, s.analyzer(), s.plan(), rates, impulses,
              spn::BatchSolveOptions{}.factor_reuse, arena);
          std::copy(batch_evals.begin(), batch_evals.end(),
                    evals.begin() + static_cast<std::ptrdiff_t>(begin));
        }
        std::lock_guard lock(mutex_);
        stats_.points += B;
        stats_.states_evaluated += evals[begin].num_states * B;
      },
      threads_);

  stats_.seconds += watch.seconds();
  return evals;
}

}  // namespace midas::core
