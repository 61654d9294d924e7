#include "replay.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <set>

#include "checks.h"
#include "core/experiment.h"
#include "core/gcs_spn_model.h"
#include "core/mission.h"
#include "core/sweep_engine.h"
#include "gcs/cost_model.h"
#include "manet/mobility.h"
#include "manet/topology.h"
#include "sim/des.h"
#include "sim/mc_engine.h"
#include "sim/protocol_sim.h"
#include "sim/rng.h"
#include "spn/absorbing.h"
#include "spn/reachability.h"
#include "trace.h"
#include "util/arena.h"
#include "util/stopwatch.h"
#include "workload.h"

namespace perfbench {

namespace core = midas::core;
namespace sim = midas::sim;
namespace spn = midas::spn;
using midas::util::Json;
using midas::util::Stopwatch;

namespace {

/// The plain replication stream, counting its draws: the same
/// UniformStream(derive_seed2(base_seed, stream_key, rep), antithetic)
/// the engine builds itself, so the draws — and the answers — are bit
/// for bit those of the uncounted run.
class CountingStream final : public sim::RandomSource {
 public:
  CountingStream(std::uint64_t seed, bool antithetic,
                 std::atomic<std::uint64_t>& total)
      : inner_(seed, antithetic), total_(total) {}
  ~CountingStream() override {
    total_.fetch_add(count_, std::memory_order_relaxed);
  }
  CountingStream(const CountingStream&) = delete;
  CountingStream& operator=(const CountingStream&) = delete;

 protected:
  double next() override {
    ++count_;
    return inner_();
  }

 private:
  sim::UniformStream inner_;
  std::atomic<std::uint64_t>& total_;
  std::uint64_t count_ = 0;
};

/// The service's shard-invariant MC options (ExperimentService applies
/// the same two adjustments before every simulation backend).
sim::McOptions effective_mc(const core::ExperimentSpec& spec,
                            core::ShardRange range, std::size_t threads) {
  sim::McOptions mc = spec.mc;
  mc.point_stream_offset += range.begin;
  if (mc.threads == 0) mc.threads = threads;
  return mc;
}

/// The protocol-sim points the service builds: each grid point plus the
/// spec's environment knobs.
std::vector<sim::ProtocolSimParams> protocol_points(
    const core::ExperimentSpec& spec, std::span<const core::Params> points) {
  std::vector<sim::ProtocolSimParams> out;
  out.reserve(points.size());
  for (const auto& p : points) {
    sim::ProtocolSimParams q;
    q.model = p;
    q.mobility = spec.protocol.mobility;
    q.radio_range_m = spec.protocol.radio_range_m;
    q.tick_s = spec.protocol.tick_s;
    q.topology_refresh_s = spec.protocol.topology_refresh_s;
    q.max_time_s = spec.protocol.max_time_s;
    out.push_back(std::move(q));
  }
  return out;
}

bool same_mean(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

/// An explored SPN structure and its absorbing-chain analyzer.
struct Structure {
  std::unique_ptr<const spn::ReachabilityGraph> graph;
  std::unique_ptr<const spn::AbsorbingAnalyzer> analyzer;
};

/// One batch of the analytic sweep: consecutive points on one structure.
struct Batch {
  const Structure* structure = nullptr;
  std::vector<core::Params> points;
};

/// A batch re-rated through ReachabilityGraph::compute_rates_batch: its
/// models and per-edge rates and impulses, which live in `arena` (reset
/// first) until its next reset.
struct Rated {
  Rated(const Batch& batch, midas::util::Arena& arena) {
    const std::size_t B = batch.points.size();
    const std::size_t E = batch.structure->graph->edges.size();
    arena.reset();
    rates = arena.make_span<double>(E * B);
    impulses = arena.make_span<double>(E * B);
    std::vector<const spn::PetriNet*> nets(B);
    model_ptrs.resize(B);
    for (std::size_t j = 0; j < B; ++j) {
      models.emplace_back(batch.points[j]);
      models.back().enable_factor_memo();
      model_ptrs[j] = &models.back();
      nets[j] = &models.back().net();
    }
    batch.structure->graph->compute_rates_batch(
        nets, rates, impulses, core::GcsSpnModel::batch_rate_fn(model_ptrs));
  }

  std::deque<core::GcsSpnModel> models;
  std::vector<const core::GcsSpnModel*> model_ptrs;
  std::span<double> rates;
  std::span<double> impulses;
};

/// One replayed request: its grid points, its answer (which carries the
/// decoded spec), the MC options its simulation backends ran with and
/// the analytic batches it solved.
struct Replayed {
  std::vector<core::Params> points;
  core::ExperimentResult result;
  sim::McOptions mc;
  std::vector<Batch> batches;
};

class Replayer {
 public:
  Replayer(Tracer& tracer, std::size_t threads)
      : t_(tracer), threads_(threads) {}

  std::map<std::string, double> counters;

  /// The set-up's structure warm-up, replayed: one exploration per
  /// structure the workload's constant analytic grid needs.
  void warm_structures(const core::ExperimentSpec& spec) {
    if (!spec.wants(core::BackendKind::Analytic) ||
        spec.base.time_varying()) {
      return;
    }
    for (const auto& point : spec.grid().expand(spec.base)) {
      const std::string key = core::structure_key(point);
      if (structures_.count(key) == 0) explore_into(key, point, -1);
    }
  }

  Replayed replay(const std::string& text, int request) {
    Scoped span(t_, "request", "core", request);
    Replayed r;
    core::ExperimentSpec& spec = r.result.spec;
    {
      Scoped s(t_, "core.spec_decode", "core", request);
      spec = core::ExperimentSpec::from_json(Json::parse(text));
      spec.validate();
      const auto grid = spec.grid();
      r.result.range = spec.resolve_range(grid);
      for (std::size_t i = r.result.range.begin; i < r.result.range.end; ++i) {
        r.points.push_back(grid.point(spec.base, i));
      }
    }
    r.result.shard_policy = core::to_string(spec.shard.policy);
    r.mc = effective_mc(spec, r.result.range, threads_);
    for (const core::BackendKind kind : spec.backends) {
      switch (kind) {
        case core::BackendKind::Analytic:
          r.result.backends.push_back(
              analytic(spec, r.points, r.batches, request));
          break;
        case core::BackendKind::Des:
          r.result.backends.push_back(des(r.mc, r.points, request));
          break;
        case core::BackendKind::ProtocolSim:
          r.result.backends.push_back(
              protocol(r.mc, protocol_points(spec, r.points), request));
          break;
      }
    }
    {
      Scoped s(t_, "core.result_encode", "core", request);
      counters["core.result_bytes"] +=
          static_cast<double>(r.result.to_json().dump().size());
    }
    return r;
  }

  /// DES detail: every trajectory the engine ran, stepped event by event
  /// through GroupSimulator::step.  Returns false when the stepped
  /// trajectories do not reproduce the engine's TTSF means.
  bool des_detail(const Replayed& r, const core::BackendRun& run,
                  int request) {
    std::vector<sim::DesContext> contexts;
    {
      Scoped s(t_, "des.contexts", "des", request);
      contexts.reserve(r.points.size());
      for (const auto& p : r.points) contexts.emplace_back(p);
    }
    const sim::MonteCarloEngine seeds(r.mc);
    const std::size_t legs = r.mc.antithetic ? 2 : 1;
    bool same = true;
    Scoped s(t_, "des.step_replay", "des", request);
    for (std::size_t p = 0; p < r.points.size(); ++p) {
      double ttsf_sum = 0.0;
      const std::size_t reps = run.mc[p].replications / legs;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t leg = 0; leg < legs; ++leg) {
          sim::UniformStream draw(seeds.replication_seed(p, rep), leg == 1);
          sim::GroupSimulator g(r.points[p], contexts[p]);
          std::uint64_t events = 1;
          while (g.step(draw) == sim::GroupSimulator::Status::Running) {
            ++events;
          }
          counters["des.events"] += static_cast<double>(events);
          counters["des.trajectories"] += 1.0;
          ttsf_sum += g.trajectory().ttsf;
        }
      }
      const double mean = ttsf_sum / static_cast<double>(reps * legs);
      same = same && same_mean(mean, run.mc[p].ttsf.mean);
    }
    return same;
  }

  /// Protocol detail: every trajectory re-run through run_protocol_sim
  /// for its message counters; tick and topology-refresh counts follow
  /// from the trajectory length exactly (one tick per tick_s, one
  /// refresh at start and one per topology_refresh_s, each an all-pairs
  /// BFS: one BFS call per node).
  bool protocol_detail(const Replayed& r, const core::BackendRun& run,
                       int request) {
    const auto qs = protocol_points(r.result.spec, r.points);
    const sim::MonteCarloEngine seeds(r.mc);
    const std::size_t legs = r.mc.antithetic ? 2 : 1;
    bool same = true;
    Scoped s(t_, "protocol.trajectory_replay", "protocol", request);
    for (std::size_t p = 0; p < qs.size(); ++p) {
      const auto& q = qs[p];
      double ttsf_sum = 0.0;
      const std::size_t reps = run.mc[p].replications / legs;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t leg = 0; leg < legs; ++leg) {
          const auto res = sim::run_protocol_sim(
              q, seeds.replication_seed(p, rep), leg == 1);
          const double ticks = std::round(res.ttsf / q.tick_s);
          const double refreshes =
              1.0 + std::floor(ticks * q.tick_s / q.topology_refresh_s + 1e-9);
          counters["protocol.trajectories"] += 1.0;
          counters["protocol.sim_seconds"] += res.ttsf;
          counters["protocol.ticks"] += ticks;
          counters["protocol.vote_messages"] +=
              static_cast<double>(res.vote_messages);
          counters["protocol.rekeys"] += static_cast<double>(res.rekey_events);
          counters["protocol.data_messages"] +=
              static_cast<double>(res.data_messages);
          counters["protocol.timeouts"] += res.timed_out ? 1.0 : 0.0;
          counters["manet.refreshes"] += refreshes;
          counters["manet.bfs_calls"] +=
              refreshes * static_cast<double>(q.model.n_init);
          ttsf_sum += res.ttsf;
        }
      }
      const double mean = ttsf_sum / static_cast<double>(reps * legs);
      same = same && same_mean(mean, run.mc[p].ttsf.mean);
    }
    return same;
  }

  /// Sweep detail: on every analytic batch of the request,
  /// AbsorbingAnalyzer::solve_batch alone and then evaluate_with_batch,
  /// which solves again and adds the rewards.  The reward time is the
  /// second span's time minus the first's.
  void solve_detail(const Replayed& r, int request) {
    midas::util::Arena& arena = midas::util::thread_scratch_arena();
    for (const Batch& b : r.batches) {
      const Rated rated(b, arena);
      {
        Scoped s(t_, "sweep.solve", "sweep", request);
        const auto solved = b.structure->analyzer->solve_batch(
            rated.rates, b.points.size(), spn::BatchSolveOptions{}, &arena);
        counters["sweep.lu_factored"] +=
            static_cast<double>(solved.blocks_factored);
        counters["sweep.lu_reused"] +=
            static_cast<double>(solved.blocks_reused);
      }
      Scoped s(t_, "sweep.solve_and_reward", "sweep", request);
      (void)core::evaluate_with_batch(
          rated.model_ptrs, *b.structure->analyzer, rated.rates,
          rated.impulses, spn::BatchSolveOptions{}.factor_reuse, arena);
    }
  }

  /// Mission detail: the explorations each MissionAnalyzer makes
  /// internally (the first segment's graph, plus every later segment
  /// whose structure differs), replayed through spn::explore.
  void mission_explorations(const Replayed& r, int request) {
    for (const auto& point : r.points) {
      const auto timeline = core::resolve_timeline(point);
      if (timeline.size() < 2) continue;
      const std::string key0 = core::structure_key(timeline[0].params);
      for (std::size_t k = 0; k < timeline.size(); ++k) {
        if (k > 0 && core::structure_key(timeline[k].params) == key0) continue;
        Scoped s(t_, "spn.explore", "spn", request);
        const core::GcsSpnModel model(timeline[k].params);
        const auto graph = spn::explore(model.net());
        count_graph(graph);
      }
    }
  }

 private:
  void count_graph(const spn::ReachabilityGraph& graph) {
    counters["spn.explorations"] += 1.0;
    counters["spn.states"] += static_cast<double>(graph.num_states());
    counters["spn.edges"] += static_cast<double>(graph.edges.size());
  }

  Structure& explore_into(const std::string& key, const core::Params& point,
                          int request) {
    Scoped s(t_, "spn.explore", "spn", request);
    const core::GcsSpnModel model(point);
    Structure st;
    st.graph = std::make_unique<const spn::ReachabilityGraph>(
        spn::explore(model.net()));
    st.analyzer = std::make_unique<const spn::AbsorbingAnalyzer>(*st.graph);
    count_graph(*st.graph);
    return structures_[key] = std::move(st);
  }

  core::BackendRun analytic(const core::ExperimentSpec& spec,
                            std::span<const core::Params> points,
                            std::vector<Batch>& batches, int request) {
    core::BackendRun out;
    out.kind = core::BackendKind::Analytic;
    if (!spec.base.time_varying()) {
      out.evals = sweep(points, spec.analytic.batch, batches, request);
    } else if (core::resolve_timeline(spec.base).size() == 1) {
      std::vector<core::Params> constant;
      for (const auto& p : points) {
        constant.push_back(core::resolve_timeline(p).front().params);
      }
      out.evals = sweep(constant, spec.analytic.batch, batches, request);
    } else {
      for (const auto& p : points) out.evals.push_back(mission(p, request));
    }
    return out;
  }

  /// SweepEngine::evaluate's batched path, one call per layer.
  std::vector<core::Evaluation> sweep(std::span<const core::Params> points,
                                      std::size_t batch_width,
                                      std::vector<Batch>& batches,
                                      int request) {
    std::vector<core::Evaluation> evals(points.size());
    std::vector<const Structure*> entry_of(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::string key = core::structure_key(points[i]);
      counters["sweep.structure_lookups"] += 1.0;
      auto it = structures_.find(key);
      if (it != structures_.end()) {
        counters["sweep.structure_hits"] += 1.0;
        entry_of[i] = &it->second;
      } else {
        entry_of[i] = &explore_into(key, points[i], request);
      }
    }
    const std::size_t width = std::max<std::size_t>(batch_width, 1);
    for (std::size_t i = 0; i < points.size();) {
      std::size_t run_end = i + 1;
      while (run_end < points.size() && entry_of[run_end] == entry_of[i]) {
        ++run_end;
      }
      for (std::size_t begin = i; begin < run_end; begin += width) {
        const std::size_t end = std::min(begin + width, run_end);
        Batch& b = batches.emplace_back();
        b.structure = entry_of[i];
        b.points.assign(points.begin() + begin, points.begin() + end);
        batch(b, std::span(evals).subspan(begin, end - begin), request);
      }
      i = run_end;
    }
    return evals;
  }

  void batch(const Batch& b, std::span<core::Evaluation> out, int request) {
    midas::util::Arena& arena = midas::util::thread_scratch_arena();
    Scoped rerate(t_, "sweep.rerate", "sweep", request);
    const Rated rated(b, arena);
    (void)rerate.seconds();
    Scoped s(t_, "sweep.evaluate", "sweep", request);
    const auto evals = core::evaluate_with_batch(
        rated.model_ptrs, *b.structure->analyzer, rated.rates, rated.impulses,
        spn::BatchSolveOptions{}.factor_reuse, arena);
    std::copy(evals.begin(), evals.end(), out.begin());
    counters["sweep.points"] += static_cast<double>(b.points.size());
  }

  core::Evaluation mission(const core::Params& point, int request) {
    std::unique_ptr<core::MissionAnalyzer> analyzer;
    {
      Scoped s(t_, "mission.build", "mission", request);
      analyzer = std::make_unique<core::MissionAnalyzer>(point);
    }
    const std::size_t segments = analyzer->timeline().size();
    counters["mission.points"] += 1.0;
    counters["mission.segments"] += static_cast<double>(segments);
    // One θ-method integration per non-final segment, on the default grid.
    counters["mission.theta_steps"] += static_cast<double>(
        (segments - 1) * core::MissionOptions{}.ode.steps);
    Scoped s(t_, "mission.chain", "mission", request);
    return analyzer->evaluate();
  }

  core::BackendRun des(sim::McOptions mc, std::span<const core::Params> points,
                       int request) {
    const std::uint64_t base = mc.base_seed;
    mc.stream_factory = [this, base](std::uint64_t stream_key, std::size_t rep,
                                     bool antithetic) {
      return std::make_unique<CountingStream>(
          sim::derive_seed2(base, stream_key, rep), antithetic, draws_);
    };
    sim::MonteCarloEngine engine(mc);
    core::BackendRun out;
    out.kind = core::BackendKind::Des;
    const double cpu0 = cpu_now();
    {
      Scoped s(t_, "mc.run_des", "mc", request);
      out.mc = engine.run_des(points);
    }
    record_mc(engine, out.mc, cpu_now() - cpu0, mc.threads);
    out.mc_stats = engine.stats();
    counters["rng.draws"] = static_cast<double>(draws_.load());
    return out;
  }

  core::BackendRun protocol(const sim::McOptions& mc,
                            const std::vector<sim::ProtocolSimParams>& points,
                            int request) {
    sim::MonteCarloEngine engine(mc);
    core::BackendRun out;
    out.kind = core::BackendKind::ProtocolSim;
    const double cpu0 = cpu_now();
    {
      Scoped s(t_, "mc.run_protocol", "mc", request);
      out.mc = engine.run_protocol(points);
    }
    record_mc(engine, out.mc, cpu_now() - cpu0, mc.threads);
    out.mc_stats = engine.stats();
    return out;
  }

  void record_mc(const sim::MonteCarloEngine& engine,
                 const std::vector<sim::McPointResult>& results, double cpu_s,
                 std::size_t threads) {
    const auto& st = engine.stats();
    counters["mc.rounds"] += static_cast<double>(st.rounds);
    counters["mc.blocks"] += static_cast<double>(st.blocks);
    counters["mc.replications"] += static_cast<double>(st.replications);
    counters["mc.points"] += static_cast<double>(results.size());
    for (const auto& r : results) counters["mc.converged"] += r.converged;
    counters["mc.cpu_s"] += cpu_s;
    counters["mc.thread_s"] += st.seconds * static_cast<double>(threads);
  }

  Tracer& t_;
  std::size_t threads_;
  std::map<std::string, Structure> structures_;
  std::atomic<std::uint64_t> draws_{0};
};

/// Set-up steps as spans.
class TracerProbe final : public SetupProbe {
 public:
  explicit TracerProbe(Tracer& t) : t_(t) {}
  void begin(const std::string& name) override {
    const auto dot = name.find('.');
    open_.push_back(t_.begin(name, name.substr(0, dot), -1));
  }
  void end() override {
    t_.end(open_.back());
    open_.pop_back();
  }

 private:
  Tracer& t_;
  std::vector<int> open_;
};

/// Mean seconds per ConnectivityGraph build + all-pairs stats on the
/// workload's mobility model (the protocol sim's topology refresh).
double probe_refresh(Tracer& t, const sim::ProtocolSimParams& q) {
  constexpr int kRefreshes = 200;
  midas::manet::RandomWaypointModel mobility(
      static_cast<std::size_t>(q.model.n_init), q.mobility, 0x70B0);
  double sink = 0.0;
  for (int k = 0; k < kRefreshes; ++k) {
    mobility.step(q.topology_refresh_s);
    Scoped s(t, "manet.refresh", "manet");
    const midas::manet::ConnectivityGraph graph(mobility.positions(),
                                                q.radio_range_m);
    sink += graph.stats().mean_hops;
  }
  if (!(sink > 0.0)) throw std::runtime_error("topology probe: no hops");
  return t.total_seconds("manet.refresh") / kRefreshes;
}

/// Nanoseconds per U(0,1) draw through the RandomSource seam.
double probe_draw(Tracer& t) {
  constexpr int kDraws = 4'000'000;
  sim::UniformStream stream(0xD2A7);
  sim::RandomSource& draw = stream;
  double sink = 0.0;
  Scoped s(t, "rng.probe", "rng");
  for (int k = 0; k < kDraws; ++k) sink += draw();
  const double secs = s.seconds();
  if (!(sink > 0.0)) throw std::runtime_error("draw probe: no draws");
  return secs * 1e9 / kDraws;
}

/// Nanoseconds per CostModel::breakdown over the group states a
/// trajectory visits (members N..1, one to three groups).
double probe_breakdown(Tracer& t, const core::Params& p) {
  const midas::gcs::CostModel cost(p.cost);
  constexpr int kRounds = 2000;
  double sink = 0.0;
  std::size_t calls = 0;
  Scoped s(t, "gcs.probe", "gcs");
  for (int round = 0; round < kRounds; ++round) {
    for (std::int64_t members = p.n_init; members >= 1; members -= 3) {
      midas::gcs::GroupState gs;
      gs.members = static_cast<double>(members);
      gs.groups = static_cast<double>(1 + (members + round) % 3);
      gs.initial_size = static_cast<double>(p.n_init);
      sink += cost.breakdown(gs, p.lambda_q, p.lambda_join, p.mu_leave,
                             1.0 / p.t_ids,
                             static_cast<std::size_t>(p.num_voters), 1e-3)
                  .total();
      ++calls;
    }
  }
  const double secs = s.seconds();
  if (!(sink > 0.0)) throw std::runtime_error("cost probe: no cost");
  return secs * 1e9 / static_cast<double>(calls);
}

}  // namespace

TracedRun run_traced(const std::string& spec_dir, const RunInfo& info,
                     const std::string& trace_path) {
  Tracer tracer;
  TracedRun out;
  TracerProbe probe(tracer);
  Ready ready = [&] {
    Scoped s(tracer, "setup", "setup");
    return set_up(spec_dir, info.workload, info.threads, &probe);
  }();
  const RequestGenerator gen(info.workload, info.seed, ready.spec_json);
  const std::size_t n = traced_requests(info.workload);
  std::set<std::size_t> failed;
  auto fail = [&](std::size_t request, const std::string& what) {
    out.failures.push_back("request " + std::to_string(request) + ": " + what);
    failed.insert(request);
  };

  // The service's answers to the same requests: the bytes the replay
  // must reproduce.
  std::vector<std::string> canonical;
  for (std::size_t i = 0; i < n; ++i) {
    const auto spec =
        core::ExperimentSpec::from_json(Json::parse(gen.request(i)));
    const auto result = ready.service->run(spec);
    const std::string result_text = result.to_json().dump();
    for (const auto& f : check_answer(spec, result, result_text)) fail(i, f);
    canonical.push_back(result.canonical_json().dump());
  }

  // Each request is replayed twice: through a tracer that records
  // nothing and through the recording one, back to back and alternating
  // which goes first.  Both run the same code on the same machine state,
  // so the difference is the tracing overhead.
  Tracer silent(false);
  Replayer bare(silent, info.threads);
  bare.warm_structures(ready.spec);
  Replayer replayer(tracer, info.threads);
  {
    Scoped s(tracer, "setup.replay_structures", "spn");
    replayer.warm_structures(ready.spec);
  }
  std::vector<Replayed> replayed;
  replayed.reserve(n);
  double overhead_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string text = gen.request(i);
    const int req = static_cast<int>(i);
    auto timed_bare = [&] {
      const Stopwatch watch;
      (void)bare.replay(text, req);
      return watch.seconds();
    };
    auto timed_traced = [&] {
      const Stopwatch watch;
      replayed.push_back(replayer.replay(text, req));
      return watch.seconds();
    };
    if (i % 2 == 0) {
      const double bare_s = timed_bare();
      overhead_s += timed_traced() - bare_s;
    } else {
      const double traced_s = timed_traced();
      overhead_s += traced_s - timed_bare();
    }
    if (replayed.back().result.canonical_json().dump() != canonical[i]) {
      fail(i, "replay does not reproduce the service's canonical bytes");
    }
  }

  // Per-layer detail passes (outside the mirrored request spans).
  double ns_per_breakdown = 0.0, refresh_s = 0.0;
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    const auto& r = replayed[i];
    const int req = static_cast<int>(i);
    replayer.solve_detail(r, req);
    for (const auto& run : r.result.backends) {
      bool same = true;
      if (run.kind == core::BackendKind::Des) {
        same = replayer.des_detail(r, run, req);
      } else if (run.kind == core::BackendKind::ProtocolSim) {
        same = replayer.protocol_detail(r, run, req);
      }
      if (!same) {
        fail(i, core::to_string(run.kind) +
                    " detail replay diverged from the engine");
      }
    }
    if (r.result.spec.base.time_varying()) {
      replayer.mission_explorations(r, req);
    }
  }
  const Replayed& first = replayed.front();
  const double ns_per_draw = probe_draw(tracer);
  if (first.result.spec.wants(core::BackendKind::Des)) {
    ns_per_breakdown = probe_breakdown(tracer, first.points.front());
  }
  if (first.result.spec.wants(core::BackendKind::ProtocolSim)) {
    refresh_s = probe_refresh(
        tracer, protocol_points(first.result.spec, first.points).front());
  }

  // Thread scaling of the MC layer (des_fig2val): the first request's
  // DES grid at 1, 2 and 4 workers; payloads must not depend on it.
  double speedup_2t = 0.0, speedup_4t = 0.0;
  if (info.workload == "des_fig2val") {
    std::map<std::size_t, double> secs;
    std::string payload0;
    for (const std::size_t threads : {1, 2, 4}) {
      sim::McOptions mc = first.mc;
      mc.threads = threads;
      sim::MonteCarloEngine engine(mc);
      Scoped s(tracer, "mc.scaling_" + std::to_string(threads) + "t", "mc");
      const auto results = engine.run_des(first.points);
      secs[threads] = s.seconds();
      std::string payload;
      for (const auto& r : results) {
        payload += core::mc_point_to_json(r).dump_compact();
      }
      if (threads == 1) payload0 = payload;
      if (payload != payload0) {
        fail(0, "MC payload changed at " + std::to_string(threads) +
                    " threads");
      }
    }
    speedup_2t = secs[1] / secs[2];
    speedup_4t = secs[1] / secs[4];
  }

  auto& c = replayer.counters;
  auto secs_in = [&](const char* span) { return tracer.total_seconds(span); };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  auto put = [&](const char* name, double value, const char* unit) {
    put_metric(out.metrics, name, value, unit);
  };
  auto count = [&](const char* name) { put(name, c[name], "count"); };
  put("core.spec_decode_s", secs_in("core.spec_decode"), "s");
  put("core.result_encode_s", secs_in("core.result_encode"), "s");
  put("core.result_bytes", c["core.result_bytes"], "bytes");
  put("ids.voting_tables", static_cast<double>(ready.voting_tables), "count");
  put("ids.voting_build_s", secs_in("ids.voting_table"), "s");
  count("spn.explorations");
  count("spn.states");
  count("spn.edges");
  put("spn.explore_s", secs_in("spn.explore"), "s");
  count("sweep.points");
  put("sweep.rerate_s", secs_in("sweep.rerate"), "s");
  put("sweep.solve_s", secs_in("sweep.solve"), "s");
  put("sweep.reward_s",
      secs_in("sweep.solve_and_reward") - secs_in("sweep.solve"), "s");
  count("sweep.lu_factored");
  count("sweep.lu_reused");
  put("sweep.lu_reuse_ratio",
      ratio(c["sweep.lu_reused"],
            c["sweep.lu_factored"] + c["sweep.lu_reused"]),
      "ratio");
  put("sweep.structure_hit_ratio",
      ratio(c["sweep.structure_hits"], c["sweep.structure_lookups"]),
      "ratio");
  count("mission.points");
  count("mission.segments");
  count("mission.theta_steps");
  put("mission.build_s", secs_in("mission.build"), "s");
  put("mission.chain_s", secs_in("mission.chain"), "s");
  const double des_busy = secs_in("des.step_replay");
  count("des.trajectories");
  count("des.events");
  put("des.events_per_traj", ratio(c["des.events"], c["des.trajectories"]),
      "events/traj");
  put("des.busy_s", des_busy, "s");
  put("des.ns_per_event", ratio(des_busy * 1e9, c["des.events"]), "ns");
  put("des.context_s", secs_in("des.contexts"), "s");
  count("rng.draws");
  put("rng.ns_per_draw", ns_per_draw, "ns");
  put("gcs.ns_per_breakdown", ns_per_breakdown, "ns");
  put("gcs.cost_share_est",
      ratio(ns_per_breakdown * c["des.events"], des_busy * 1e9), "ratio");
  const double mc_wall = secs_in("mc.run_des") + secs_in("mc.run_protocol");
  count("mc.rounds");
  count("mc.blocks");
  count("mc.replications");
  put("mc.converged_frac", ratio(c["mc.converged"], c["mc.points"]), "ratio");
  put("mc.utilisation", ratio(c["mc.cpu_s"], c["mc.thread_s"]), "ratio");
  put("mc.traj_per_s", ratio(c["mc.replications"], mc_wall), "1/s");
  put("mc.speedup_2t", speedup_2t, "ratio");
  put("mc.speedup_4t", speedup_4t, "ratio");
  const double protocol_busy = secs_in("protocol.trajectory_replay");
  count("protocol.trajectories");
  put("protocol.sim_seconds", c["protocol.sim_seconds"], "s");
  count("protocol.ticks");
  put("protocol.busy_s", protocol_busy, "s");
  count("protocol.vote_messages");
  count("protocol.rekeys");
  count("protocol.data_messages");
  count("protocol.timeouts");
  count("manet.refreshes");
  count("manet.bfs_calls");
  put("manet.refresh_s", refresh_s, "s");
  put("manet.topology_share_est",
      ratio(refresh_s * c["manet.refreshes"], protocol_busy), "ratio");
  put("trace.requests", static_cast<double>(n), "count");
  put("trace.overhead_s", overhead_s, "s");

  out.attempted = n;
  out.failed = failed.size();
  Json meta = stamp(info);
  meta.set("per_layer", out.metrics);
  tracer.write(trace_path, meta);
  return out;
}

}  // namespace perfbench
