#include "spn/absorbing.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "linalg/dense_matrix.h"

namespace midas::spn {

namespace {

/// Runs body(P) with P a compile-time 1 when `lanes` is 1, so one-lane
/// callers get straight scalar loops (linalg/dense_matrix.cpp's idiom),
/// and with the runtime lane count otherwise.  Bodies are marked
/// always_inline, so their captures stay in registers.
template <class Body>
[[gnu::always_inline]] inline void with_lanes(std::size_t lanes,
                                              Body&& body) {
  if (lanes == 1) {
    body(std::integral_constant<std::size_t, 1>{});
  } else {
    body(lanes);
  }
}

/// Factor reuse (BatchSolveOptions) for one assembled k×k block in P > 1
/// lanes, solved into s.rhs; false, having solved nothing, when no two
/// lanes share a normalised block.
bool solve_shared(std::size_t k, std::size_t P,
                  TransientStructure::Scratch& s) {
  const double* M = s.lu.data();
  double* b = s.rhs.data();
  // Scale 2^-e, with 2^e the power of two bracketing block entry (0,0).
  // The scaling is EXACT, so factoring N_p = M_p·2^-e picks the same
  // pivots and yields the per-lane factors times 2^-e: the solution is
  // bitwise the raw block's.  Entry (0,0) is positive and normal in any
  // well-posed solve; a degenerate one takes the per-lane path.  For
  // biased exponent E, 2^-e has biased exponent 2046 − E.
  for (std::size_t p = 0; p < P; ++p) {
    const double pivot = M[p];  // entry (0,0), point-major row 0
    if (!(std::isnormal(pivot) && pivot > 0.0 && pivot < 0x1p1023)) {
      return false;
    }
    const std::uint64_t e = std::bit_cast<std::uint64_t>(pivot) >> 52;
    s.scale[p] = std::bit_cast<double>((2046 - e) << 52);
  }
  // Lanes with bitwise-identical N_p share one factorisation, so a
  // lane's answer depends only on (N_p, b_p, e_p), not on its batch.
  const auto same_normalised = [&](std::size_t p, std::size_t q) {
    for (std::size_t rc = 0; rc < k * k; ++rc) {
      if (std::bit_cast<std::uint64_t>(M[rc * P + p] * s.scale[p]) !=
          std::bit_cast<std::uint64_t>(M[rc * P + q] * s.scale[q])) {
        return false;
      }
    }
    return true;
  };
  bool shared = false;
  for (std::size_t p = 0; p < P; ++p) {
    s.head[p] = static_cast<std::uint32_t>(p);
    for (std::size_t q = 0; q < p; ++q) {
      if (s.head[q] != q) continue;  // compare against group heads only
      // Equal normalised blocks share entry (0,0)'s mantissa bits.
      const std::uint64_t m00 = std::bit_cast<std::uint64_t>(M[p]) ^
                                std::bit_cast<std::uint64_t>(M[q]);
      if ((m00 << 12) != 0) continue;
      if (same_normalised(p, q)) {
        s.head[p] = static_cast<std::uint32_t>(q);
        shared = true;
        break;
      }
    }
  }
  // With no group of two, each group's solve would be the per-lane
  // path's bits (the scaling is exact) at extra cost.
  if (!shared) return false;
  double* G = s.shared_rhs.data();
  for (std::size_t h = 0; h < P; ++h) {
    if (s.head[h] != h) continue;
    std::size_t n_g = 0;
    for (std::size_t p = 0; p < P; ++p) {
      if (s.head[p] == h) s.member[n_g++] = static_cast<std::uint32_t>(p);
    }
    for (std::size_t rc = 0; rc < k * k; ++rc) {
      s.shared_lu[rc] = M[rc * P + h] * s.scale[h];  // N_h
    }
    linalg::LuFactorView view{s.shared_lu.first(k * k), s.ipiv.first(k),
                              k};
    view.factor();
    ++s.blocks_factored;
    // Scaled right-hand sides g_p = b_p·2^-e_p, component-major; the
    // solutions go back to the members' lanes.
    for (std::size_t r = 0; r < k; ++r) {
      for (std::size_t g = 0; g < n_g; ++g) {
        const std::size_t p = s.member[g];
        G[r * n_g + g] = b[r * P + p] * s.scale[p];
      }
    }
    view.solve_many(s.shared_rhs.first(k * n_g), n_g);
    for (std::size_t r = 0; r < k; ++r) {
      for (std::size_t g = 0; g < n_g; ++g) {
        b[r * P + s.member[g]] = G[r * n_g + g];
      }
    }
    s.blocks_reused += n_g - 1;
  }
  return true;
}
}  // namespace

TransientStructure::TransientStructure(const ReachabilityGraph& graph) {
  const std::size_t n = graph.num_states();
  const auto absorbing = graph.absorbing_mask();

  // Compact index over transient states.
  compact.assign(n, UINT32_MAX);
  expand.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (!absorbing[s]) {
      compact[s] = static_cast<std::uint32_t>(expand.size());
      expand.push_back(static_cast<std::uint32_t>(s));
    }
  }
  const std::size_t nt = expand.size();
  init_compact = compact[graph.initial];

  // Transient→transient adjacency, once: incoming CSR (for the balance
  // rows) and outgoing CSR (for the condensation).
  in_offsets.assign(nt + 1, 0);
  std::vector<std::uint32_t> out_offsets(nt + 1, 0);
  std::size_t num_tt = 0;
  for (std::size_t i = 0; i < nt; ++i) {
    for (const auto& e : graph.out_edges(expand[i])) {
      if (e.src == e.dst) continue;
      const auto cd = compact[e.dst];
      if (cd != UINT32_MAX) {
        ++in_offsets[cd + 1];
        ++out_offsets[i + 1];
        ++num_tt;
      }
    }
  }
  for (std::size_t i = 0; i < nt; ++i) {
    in_offsets[i + 1] += in_offsets[i];
    out_offsets[i + 1] += out_offsets[i];
  }
  in_edges.resize(num_tt);
  std::vector<std::uint32_t> out_targets(num_tt);
  {
    std::vector<std::uint32_t> in_cursor(in_offsets.begin(),
                                         in_offsets.end() - 1);
    std::vector<std::uint32_t> out_cursor(out_offsets.begin(),
                                          out_offsets.end() - 1);
    for (std::size_t i = 0; i < nt; ++i) {
      const auto cs = static_cast<std::uint32_t>(i);
      const auto begin = graph.edge_offsets[expand[i]];
      const auto end = graph.edge_offsets[expand[i] + 1];
      for (std::uint32_t idx = begin; idx < end; ++idx) {
        const auto& e = graph.edges[idx];
        if (e.src == e.dst) continue;
        const auto cd = compact[e.dst];
        if (cd == UINT32_MAX) continue;
        in_edges[in_cursor[cd]++] = {cs, idx};
        out_targets[out_cursor[i]++] = cd;
      }
    }
  }

  // Compacted exit-rate and absorption-flow structure: per transient
  // state, the global indices of its non-self-loop out-edges in graph
  // CSR order (exit), and among those the transient→absorbing ones
  // (abs).
  exit_offsets.reserve(nt + 1);
  abs_offsets.reserve(nt + 1);
  exit_offsets.push_back(0);
  abs_offsets.push_back(0);
  for (std::size_t i = 0; i < nt; ++i) {
    const auto begin = graph.edge_offsets[expand[i]];
    const auto end = graph.edge_offsets[expand[i] + 1];
    for (std::uint32_t idx = begin; idx < end; ++idx) {
      const auto& e = graph.edges[idx];
      if (e.src == e.dst) continue;
      exit_edges.push_back(idx);
      if (absorbing[e.dst]) abs_edges.push_back({idx, e.dst});
    }
    exit_offsets.push_back(static_cast<std::uint32_t>(exit_edges.size()));
    abs_offsets.push_back(static_cast<std::uint32_t>(abs_edges.size()));
  }

  scc = strongly_connected_components(out_offsets, out_targets);
  components = scc.members();
  std::vector<std::uint32_t> block_row(nt);  // position in its component
  for (const auto& block : components) {
    max_block = std::max(max_block, block.size());
    for (std::size_t r = 0; r < block.size(); ++r) {
      block_row[block[r]] = static_cast<std::uint32_t>(r);
    }
  }
  term_offsets.reserve(components.size() + 1);
  term_offsets.push_back(0);
  for (const auto& block : components) {
    const std::size_t k = block.size();
    for (std::size_t r = 0; r < k; ++r) {
      const auto j = block[r];
      for (std::uint32_t e = in_offsets[j]; e < in_offsets[j + 1]; ++e) {
        const auto& in = in_edges[e];
        if (scc.component[in.src] != scc.component[j]) continue;
        terms.push_back(
            {static_cast<std::uint32_t>(r * k + block_row[in.src]), in.edge});
      }
    }
    term_offsets.push_back(static_cast<std::uint32_t>(terms.size()));
  }
  ext_offsets.reserve(nt + 1);
  ext_offsets.push_back(0);
  for (std::size_t j = 0; j < nt; ++j) {
    for (std::uint32_t k = in_offsets[j]; k < in_offsets[j + 1]; ++k) {
      if (scc.component[in_edges[k].src] != scc.component[j]) {
        ext_edges.push_back(in_edges[k]);
      }
    }
    ext_offsets.push_back(static_cast<std::uint32_t>(ext_edges.size()));
  }
}

void TransientStructure::exit_rates(std::span<const double> edge_rates,
                                    std::span<double> out,
                                    std::size_t lanes) const {
  with_lanes(lanes, [&](auto P) __attribute__((always_inline)) {
    for (std::size_t i = 0; i < size(); ++i) {
      double* row = out.data() + i * P;
      for (std::size_t p = 0; p < P; ++p) row[p] = 0.0;
      for (std::uint32_t k = exit_offsets[i]; k < exit_offsets[i + 1]; ++k) {
        const double* er =
            edge_rates.data() + std::size_t{exit_edges[k]} * P;
        for (std::size_t p = 0; p < P; ++p) row[p] += er[p];
      }
    }
  });
}

TransientStructure::Scratch TransientStructure::make_scratch(
    std::size_t lanes, util::Arena& arena, bool factor_reuse) const {
  // One dense block is k² doubles per lane and O(k³) to factor; the
  // model's only cycles are the group partition/merge flips.
  if (max_block > 4096) {
    throw std::runtime_error("transient SCC of size " +
                             std::to_string(max_block) +
                             " exceeds the dense-block limit");
  }
  const std::size_t k = std::max<std::size_t>(max_block, 1);
  Scratch s;
  s.lanes = lanes;
  s.lu = arena.make_span<double>(k * k * lanes);
  s.rhs = arena.make_span<double>(k * lanes);
  s.ipiv = arena.make_span<std::uint32_t>(k * lanes);
  s.pivot_lanes = arena.make_span<double>(3 * lanes);
  if (factor_reuse && lanes > 1 && max_block > 1) {
    s.scale = arena.make_span<double>(lanes);
    s.head = arena.make_span<std::uint32_t>(lanes);
    s.member = arena.make_span<std::uint32_t>(lanes);
    s.shared_lu = arena.make_span<double>(k * k);
    s.shared_rhs = arena.make_span<double>(k * lanes);
  }
  return s;
}

void TransientStructure::substitute(std::span<const double> edge_rates,
                                    std::span<const double> exit_rate,
                                    double shift, std::span<double> x,
                                    Scratch& s) const {
  // Tarjan SCCs of the transient graph form a DAG: processing components
  // in topological order makes every cross-component inflow a known
  // quantity, and each component reduces to a dense system of its own
  // (tiny: the model's only cycles are the group partition/merge flips).
  // This is immune to the stiffness that defeats global iterative
  // solvers when the cycle rates exceed the security rates by many
  // orders of magnitude.
  with_lanes(s.lanes, [&](auto P) __attribute__((always_inline)) {
    const double* rates = edge_rates.data();
    double* lu = s.lu.data();
    double* b = s.rhs.data();
    // Higher component id = earlier in topological order (sources first).
    for (std::size_t c = components.size(); c-- > 0;) {
      const auto& block = components[c];
      // bj[p] = b_j plus the inflow from already-solved predecessor
      // components, in lane p.  A single lane accumulates in a local,
      // which nothing aliases, so it stays in a register.
      const auto external_b = [&](std::uint32_t j, double* bj) {
        double one = 0.0;
        double* acc = P == 1 ? &one : bj;
        const double* xj = x.data() + std::size_t{j} * P;
        for (std::size_t p = 0; p < P; ++p) acc[p] = xj[p];
        for (std::uint32_t e = ext_offsets[j]; e < ext_offsets[j + 1]; ++e) {
          const auto& in = ext_edges[e];
          const double* xs = x.data() + std::size_t{in.src} * P;
          const double* er = rates + std::size_t{in.edge} * P;
          for (std::size_t p = 0; p < P; ++p) acc[p] += xs[p] * er[p];
        }
        if (P == 1) bj[0] = one;
      };
      if (block.size() == 1) {
        const auto j = block[0];
        external_b(j, b);
        double* xj = x.data() + std::size_t{j} * P;
        const double* ej = exit_rate.data() + std::size_t{j} * P;
        for (std::size_t p = 0; p < P; ++p) {
          const double diag = ej[p] + shift;
          if (diag <= 0.0) {
            throw std::runtime_error(
                "TransientStructure: transient state with zero exit rate");
          }
          xj[p] = b[p] / diag;
        }
        continue;
      }
      // Dense block:  (shift + exit_j)·x_j − Σ_{i∈block} r_ij·x_i = b_j,
      // point-major: entry (r, c) of lane p at lu[(r·k + c)·P + p] and
      // row r's right-hand side at b[r·P + p].
      const std::size_t k = block.size();
      std::fill_n(lu, k * k * P, 0.0);
      for (std::size_t r = 0; r < k; ++r) {
        const auto j = block[r];
        double* diag = lu + (r * k + r) * P;
        const double* ej = exit_rate.data() + std::size_t{j} * P;
        for (std::size_t p = 0; p < P; ++p) diag[p] = ej[p] + shift;
        external_b(j, b + r * P);
      }
      for (std::uint32_t t = term_offsets[c]; t < term_offsets[c + 1]; ++t) {
        double* m = lu + std::size_t{terms[t].entry} * P;
        const double* er = rates + std::size_t{terms[t].edge} * P;
        for (std::size_t p = 0; p < P; ++p) m[p] -= er[p];
      }
      if (s.scale.empty() || !solve_shared(k, P, s)) {
        linalg::lu_solve_point_major(s.lu.first(k * k * P),
                                     s.rhs.first(k * P), k, P,
                                     s.pivot_lanes, s.ipiv);
        s.blocks_factored += P;
      }
      for (std::size_t r = 0; r < k; ++r) {
        std::copy_n(b + r * P, P, x.data() + std::size_t{block[r]} * P);
      }
    }
  });
}

void TransientStructure::absorption_flow(std::span<const double> edge_rates,
                                         std::span<const double> x,
                                         std::span<double> absorbed,
                                         std::size_t lanes) const {
  with_lanes(lanes, [&](auto P) __attribute__((always_inline)) {
    for (std::size_t i = 0; i < size(); ++i) {
      const double* xi = x.data() + i * P;
      for (std::uint32_t k = abs_offsets[i]; k < abs_offsets[i + 1]; ++k) {
        const auto& ae = abs_edges[k];
        double* ap = absorbed.data() + std::size_t{ae.dst} * P;
        const double* er = edge_rates.data() + std::size_t{ae.edge} * P;
        for (std::size_t p = 0; p < P; ++p) ap[p] += xi[p] * er[p];
      }
    }
  });
}

void check_transient_mass(std::span<const double> mass,
                          const ReachabilityGraph& graph,
                          const std::string& name) {
  if (mass.size() != graph.num_states()) {
    throw std::invalid_argument(name + " size " + std::to_string(mass.size()) +
                                " does not match state count " +
                                std::to_string(graph.num_states()));
  }
  // Mass at an absorbing state would be silently dropped, and a
  // non-finite entry would flow into every expectation.  Negative
  // entries within rounding of zero are what a θ-step leaves behind.
  double total = 0.0;
  for (const double w : mass) {
    if (std::isfinite(w)) total += std::abs(w);
  }
  const auto absorbing = graph.absorbing_mask();
  for (std::size_t s = 0; s < mass.size(); ++s) {
    const double w = mass[s];
    const char* defect = nullptr;
    if (!std::isfinite(w)) {
      defect = "is not finite";
    } else if (w != 0.0 && absorbing[s]) {
      defect = "is nonzero at an absorbing state";
    } else if (w < -1e-12 * total) {
      defect = "is negative beyond rounding";
    }
    if (defect == nullptr) continue;
    std::ostringstream msg;
    msg << name << '[' << s << "] = " << w << ' ' << defect << " (marking "
        << graph.states[s].to_string() << ")";
    throw std::invalid_argument(msg.str());
  }
}

AbsorbingAnalyzer::AbsorbingAnalyzer(const ReachabilityGraph& graph)
    : graph_(graph), t_(graph) {
  const std::size_t nt = t_.size();
  if (nt == graph_.num_states()) {
    throw std::runtime_error(
        "AbsorbingAnalyzer: chain has no absorbing states");
  }

  // Snapshot of the stored edge rates so the no-argument solve() does
  // not copy the edge list on every call (the graph is held const, so
  // the snapshot cannot go stale).
  stored_rates_.resize(graph_.edges.size());
  for (std::size_t i = 0; i < stored_rates_.size(); ++i) {
    stored_rates_[i] = graph_.edges[i].rate;
  }

  if (nt == 0) return;  // initial state itself absorbing: MTTA = 0

  const auto init = t_.init_compact;
  if (init == UINT32_MAX) {
    throw std::runtime_error(
        "AbsorbingAnalyzer: initial state is marked absorbing yet transient "
        "states exist; inconsistent graph");
  }

  // Absorption must be certain from the initial marking, or MTTA
  // diverges and the solve fails downstream with an opaque symptom (a
  // zero-exit-rate state, or a singular SCC block).  Detect the two
  // ways that happens here, where the message can say what is wrong:
  //   1. no absorbing state is reachable from the initial state at all;
  //   2. some reachable transient region cannot reach absorption (a
  //      recurrent transient class traps probability mass).
  // Edge existence is structural, so this is a construction-time check;
  // solve(edge_rates) only re-weights existing edges (positively).
  std::vector<char> can_absorb(nt, 0);
  std::vector<std::uint32_t> stack;
  for (std::size_t i = 0; i < nt; ++i) {
    if (t_.abs_offsets[i] < t_.abs_offsets[i + 1]) {
      can_absorb[i] = 1;
      stack.push_back(static_cast<std::uint32_t>(i));
    }
  }
  while (!stack.empty()) {
    const auto j = stack.back();
    stack.pop_back();
    for (std::uint32_t k = t_.in_offsets[j]; k < t_.in_offsets[j + 1]; ++k) {
      const auto src = t_.in_edges[k].src;
      if (!can_absorb[src]) {
        can_absorb[src] = 1;
        stack.push_back(src);
      }
    }
  }
  if (!can_absorb[init]) {
    throw std::runtime_error(
        "AbsorbingAnalyzer: no absorbing state is reachable from the "
        "initial marking " +
        graph_.states[graph_.initial].to_string() +
        " — every path cycles among transient states forever, so mean "
        "time to absorption diverges");
  }
  // Forward sweep over the transient region reachable from the initial
  // state: a reachable state that cannot absorb is a trap.
  std::vector<char> reachable(nt, 0);
  reachable[init] = 1;
  stack.push_back(init);
  while (!stack.empty()) {
    const auto j = stack.back();
    stack.pop_back();
    if (!can_absorb[j]) {
      throw std::runtime_error(
          "AbsorbingAnalyzer: transient state " +
          graph_.states[t_.expand[j]].to_string() +
          " is reachable from the initial marking but cannot reach any "
          "absorbing state (recurrent transient class: mean time to "
          "absorption diverges)");
    }
    for (const auto& e : graph_.out_edges(t_.expand[j])) {
      if (e.src == e.dst) continue;
      const auto cd = t_.compact[e.dst];
      if (cd != UINT32_MAX && !reachable[cd]) {
        reachable[cd] = 1;
        stack.push_back(cd);
      }
    }
  }
}

AbsorbingResult AbsorbingAnalyzer::solve() const {
  return solve(stored_rates_);
}

AbsorbingResult AbsorbingAnalyzer::solve(
    std::span<const double> edge_rates) const {
  return solve_from({}, edge_rates);
}

AbsorbingResult AbsorbingAnalyzer::solve_from(
    std::span<const double> initial_mass,
    std::span<const double> edge_rates) const {
  if (!initial_mass.empty()) {
    check_transient_mass(initial_mass, graph_,
                         "AbsorbingAnalyzer::solve_from: initial_mass");
  }
  AbsorbingResult res;
  res.sojourn.assign(graph_.num_states(), 0.0);
  res.absorb_probability.assign(graph_.num_states(), 0.0);
  AbsorbingBatchResult lane{.num_points = 1,
                            .mtta = {&res.mtta, 1},
                            .sojourn = res.sojourn,
                            .absorb_probability = res.absorb_probability};
  util::Arena arena;
  solve_lanes(initial_mass, edge_rates, false, arena, lane);
  res.solver_blocks = lane.solver_blocks;
  return res;
}

AbsorbingBatchResult AbsorbingAnalyzer::solve_batch(
    std::span<const double> edge_rates, std::size_t num_points,
    const BatchSolveOptions& opts, util::Arena* arena) const {
  util::Arena& a = arena != nullptr ? *arena : util::thread_scratch_arena();
  const std::size_t n = graph_.num_states();
  AbsorbingBatchResult res{
      .num_points = num_points,
      .mtta = a.make_span<double>(num_points, 0.0),
      .sojourn = a.make_span<double>(n * num_points, 0.0),
      .absorb_probability = a.make_span<double>(n * num_points, 0.0)};
  solve_lanes({}, edge_rates, opts.factor_reuse, a, res);
  return res;
}

void AbsorbingAnalyzer::solve_lanes(std::span<const double> initial_mass,
                                    std::span<const double> edge_rates,
                                    bool factor_reuse, util::Arena& a,
                                    AbsorbingBatchResult& res) const {
  const std::size_t P = res.num_points;
  if (P == 0) {
    throw std::invalid_argument(
        "AbsorbingAnalyzer: num_points must be positive");
  }
  if (edge_rates.size() != graph_.edges.size() * P) {
    throw std::invalid_argument(
        "AbsorbingAnalyzer: edge_rates size " +
        std::to_string(edge_rates.size()) +
        " does not match edge count x num_points = " +
        std::to_string(graph_.edges.size() * P));
  }
  const std::size_t nt = t_.size();
  res.solver_blocks = t_.components.size();

  if (nt == 0) {
    // The initial state is absorbing: MTTA = 0.  A caller's mass is all
    // at transient states, so here it is zero, and so is everything.
    if (initial_mass.empty()) {
      std::fill_n(res.absorb_probability.data() +
                      std::size_t{graph_.initial} * P,
                  P, 1.0);
    }
    return;
  }

  // Sojourn balance  exit_j·τ_j − Σ_{i→j} r_ij·τ_i = π0_j  in every lane,
  // solved by the shared condensation pass with no diagonal shift.  π₀
  // is unit mass at the initial state, or the caller's distribution.
  auto tau = a.make_span<double>(nt * P, 0.0);
  with_lanes(P, [&](auto lanes) __attribute__((always_inline)) {
    if (initial_mass.empty()) {
      double* init = tau.data() + std::size_t{t_.init_compact} * lanes;
      for (std::size_t p = 0; p < lanes; ++p) init[p] = 1.0;
      return;
    }
    for (std::size_t j = 0; j < nt; ++j) {
      const double* row =
          initial_mass.data() + std::size_t{t_.expand[j]} * lanes;
      for (std::size_t p = 0; p < lanes; ++p) tau[j * lanes + p] = row[p];
    }
  });
  auto exit = a.make_span<double>(nt * P);
  auto scratch = t_.make_scratch(P, a, factor_reuse);
  t_.exit_rates(edge_rates, exit, P);
  t_.substitute(edge_rates, exit, 0.0, tau, scratch);
  res.blocks_factored = scratch.blocks_factored;
  res.blocks_reused = scratch.blocks_reused;

  with_lanes(P, [&](auto lanes) __attribute__((always_inline)) {
    double* mtta = res.mtta.data();
    for (std::size_t i = 0; i < nt; ++i) {
      const double* ti = tau.data() + i * lanes;
      double* so = res.sojourn.data() + std::size_t{t_.expand[i]} * lanes;
      for (std::size_t p = 0; p < lanes; ++p) so[p] = ti[p];
    }
    for (std::size_t i = 0; i < nt; ++i) {
      for (std::size_t p = 0; p < lanes; ++p) mtta[p] += tau[i * lanes + p];
    }
  });
  t_.absorption_flow(edge_rates, tau, res.absorb_probability, P);
}

double AbsorbingAnalyzer::accumulated_rate_reward(
    const AbsorbingResult& res,
    const std::function<double(const Marking&)>& reward) const {
  double acc = 0.0;
  for (std::size_t s = 0; s < graph_.num_states(); ++s) {
    const double tau = res.sojourn[s];
    if (tau > 0.0) acc += tau * reward(graph_.states[s]);
  }
  return acc;
}

double AbsorbingAnalyzer::accumulated_impulse_reward(
    const AbsorbingResult& res) const {
  double acc = 0.0;
  for (const auto& e : graph_.edges) {
    if (e.impulse == 0.0) continue;
    acc += res.sojourn[e.src] * e.rate * e.impulse;
  }
  return acc;
}

double AbsorbingAnalyzer::absorption_probability_where(
    const AbsorbingResult& res,
    const std::function<bool(const Marking&)>& pred) const {
  double acc = 0.0;
  for (std::size_t s = 0; s < graph_.num_states(); ++s) {
    if (res.absorb_probability[s] > 0.0 && pred(graph_.states[s])) {
      acc += res.absorb_probability[s];
    }
  }
  return acc;
}

}  // namespace midas::spn
