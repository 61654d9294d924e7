#include "spn/absorbing.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "linalg/dense_matrix.h"

namespace midas::spn {

namespace {
// Largest SCC solved as one dense block (k² doubles of scratch, O(k³)
// per factorisation).  The model's only cycles are the group
// partition/merge flips, so real blocks have a handful of states.
void check_dense_block_limit(std::size_t k) {
  if (k > 4096) {
    throw std::runtime_error("transient SCC of size " + std::to_string(k) +
                             " exceeds the dense-block limit");
  }
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
  for (const auto& block : components) {
    max_block = std::max(max_block, block.size());
  }
}

void TransientStructure::exit_rates(std::span<const double> edge_rates,
                                    std::span<double> out) const {
  for (std::size_t i = 0; i < size(); ++i) {
    double acc = 0.0;
    for (std::uint32_t k = exit_offsets[i]; k < exit_offsets[i + 1]; ++k) {
      acc += edge_rates[exit_edges[k]];
    }
    out[i] = acc;
  }
}

TransientStructure::Scratch TransientStructure::make_scratch() const {
  check_dense_block_limit(max_block);
  Scratch s;
  s.local.assign(size(), UINT32_MAX);
  s.lu.resize(max_block * max_block);
  s.ipiv.resize(max_block);
  s.rhs.resize(max_block);
  return s;
}

void TransientStructure::substitute(std::span<const double> edge_rates,
                                    std::span<const double> exit_rate,
                                    double shift, std::span<double> x,
                                    Scratch& scratch) const {
  // Tarjan SCCs of the transient graph form a DAG: processing components
  // in topological order makes every cross-component inflow a known
  // quantity, and each component reduces to a dense system of its own
  // (tiny: the model's only cycles are the group partition/merge flips).
  // This is immune to the stiffness that defeats global iterative
  // solvers when the cycle rates exceed the security rates by many
  // orders of magnitude.
  auto& local = scratch.local;
  // Higher component id = earlier in topological order (sources first).
  for (std::size_t c = components.size(); c-- > 0;) {
    const auto& block = components[c];
    const auto cc = static_cast<std::uint32_t>(c);
    // b_j plus the inflow from already-solved predecessor components.
    const auto external_b = [&](std::uint32_t j) {
      double b = x[j];
      for (std::uint32_t k = in_offsets[j]; k < in_offsets[j + 1]; ++k) {
        const auto& in = in_edges[k];
        if (scc.component[in.src] != cc) {
          b += x[in.src] * edge_rates[in.edge];
        }
      }
      return b;
    };
    if (block.size() == 1) {
      const auto j = block[0];
      const double diag = exit_rate[j] + shift;
      if (diag <= 0.0) {
        throw std::runtime_error(
            "TransientStructure: transient state with zero exit rate");
      }
      x[j] = external_b(j) / diag;
      continue;
    }
    // Dense block:  (shift + exit_j)·x_j − Σ_{i∈block} r_ij·x_i = b_j.
    const std::size_t k = block.size();
    double* m = scratch.lu.data();
    std::fill_n(m, k * k, 0.0);
    for (std::size_t r = 0; r < k; ++r) {
      local[block[r]] = static_cast<std::uint32_t>(r);
    }
    for (std::size_t r = 0; r < k; ++r) {
      const auto j = block[r];
      m[r * k + r] = exit_rate[j] + shift;
      scratch.rhs[r] = external_b(j);
      for (std::uint32_t e = in_offsets[j]; e < in_offsets[j + 1]; ++e) {
        const auto& in = in_edges[e];
        const auto li = local[in.src];
        if (li != UINT32_MAX) m[r * k + li] -= edge_rates[in.edge];
      }
    }
    const std::span<double> b = std::span(scratch.rhs).first(k);
    linalg::LuFactorView view{std::span(scratch.lu).first(k * k),
                              std::span(scratch.ipiv).first(k), k};
    view.factor();
    view.solve_to(b, b);
    for (std::size_t r = 0; r < k; ++r) {
      x[block[r]] = b[r];
      local[block[r]] = UINT32_MAX;  // reset for the next block
    }
  }
}

void TransientStructure::absorption_flow(std::span<const double> edge_rates,
                                         std::span<const double> x,
                                         std::span<double> absorbed) const {
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::uint32_t k = abs_offsets[i]; k < abs_offsets[i + 1]; ++k) {
      const auto& ae = abs_edges[k];
      absorbed[ae.dst] += x[i] * edge_rates[ae.edge];
    }
  }
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
  if (edge_rates.size() != graph_.edges.size()) {
    throw std::invalid_argument(
        "AbsorbingAnalyzer::solve: edge_rates size " +
        std::to_string(edge_rates.size()) + " does not match edge count " +
        std::to_string(graph_.edges.size()));
  }
  if (!initial_mass.empty()) {
    check_transient_mass(initial_mass, graph_,
                         "AbsorbingAnalyzer::solve_from: initial_mass");
  }
  const std::size_t n = graph_.num_states();
  const std::size_t nt = t_.size();

  AbsorbingResult res;
  res.sojourn.assign(n, 0.0);

  if (nt == 0) {
    // Initial state itself is absorbing: MTTA = 0.  With a custom mass
    // the contract puts nothing at absorbing states, so there is no
    // transient mass at all and every expectation is 0.
    res.mtta = 0.0;
    res.absorb_probability.assign(n, 0.0);
    if (initial_mass.empty()) res.absorb_probability[graph_.initial] = 1.0;
    res.converged = true;
    return res;
  }

  // Sojourn balance  exit_j·τ_j − Σ_{i→j} r_ij·τ_i = π0_j,  solved by
  // the shared condensation pass with no diagonal shift.  π₀ is the
  // default unit mass at the initial state, or the caller's full-state
  // distribution (solve_from).
  std::vector<double> exit_rate(nt);
  t_.exit_rates(edge_rates, exit_rate);
  std::vector<double> tau(nt, 0.0);
  if (initial_mass.empty()) {
    tau[t_.init_compact] = 1.0;
  } else {
    for (std::size_t j = 0; j < nt; ++j) {
      tau[j] = initial_mass[t_.expand[j]];
    }
  }
  auto scratch = t_.make_scratch();
  t_.substitute(edge_rates, exit_rate, 0.0, tau, scratch);

  res.solver_blocks = t_.components.size();
  res.converged = true;
  double mtta = 0.0;
  for (std::size_t i = 0; i < nt; ++i) {
    res.sojourn[t_.expand[i]] = tau[i];
    mtta += tau[i];
  }
  res.mtta = mtta;

  res.absorb_probability.assign(n, 0.0);
  t_.absorption_flow(edge_rates, tau, res.absorb_probability);
  return res;
}

AbsorbingBatchResult AbsorbingAnalyzer::solve_batch(
    std::span<const double> edge_rates, std::size_t num_points,
    const BatchSolveOptions& opts, util::Arena* arena) const {
  const std::size_t P = num_points;
  if (P == 0) {
    throw std::invalid_argument(
        "AbsorbingAnalyzer::solve_batch: num_points must be positive");
  }
  if (edge_rates.size() != graph_.edges.size() * P) {
    throw std::invalid_argument(
        "AbsorbingAnalyzer::solve_batch: edge_rates size " +
        std::to_string(edge_rates.size()) +
        " does not match edge count x num_points = " +
        std::to_string(graph_.edges.size() * P));
  }
  util::Arena& a = arena != nullptr ? *arena : util::thread_scratch_arena();
  const std::size_t n = graph_.num_states();
  const std::size_t nt = t_.size();
  const double* rates = edge_rates.data();

  AbsorbingBatchResult res;
  res.num_points = P;
  res.mtta = a.make_span<double>(P, 0.0);
  res.sojourn = a.make_span<double>(n * P, 0.0);
  res.absorb_probability = a.make_span<double>(n * P, 0.0);

  if (nt == 0) {
    double* row = res.absorb_probability.data() +
                  static_cast<std::size_t>(graph_.initial) * P;
    for (std::size_t p = 0; p < P; ++p) row[p] = 1.0;
    res.converged = true;
    return res;
  }

  // Exit rates, point-major: each compacted edge contributes a
  // contiguous row of P rates to its source's row.
  auto exit = a.make_span<double>(nt * P, 0.0);
  for (std::size_t i = 0; i < nt; ++i) {
    double* row = exit.data() + i * P;
    for (std::uint32_t k = t_.exit_offsets[i]; k < t_.exit_offsets[i + 1];
         ++k) {
      const double* er =
          rates + static_cast<std::size_t>(t_.exit_edges[k]) * P;
      for (std::size_t p = 0; p < P; ++p) row[p] += er[p];
    }
  }

  auto tau = a.make_span<double>(nt * P, 0.0);
  auto local = a.make_span<std::uint32_t>(nt, UINT32_MAX);

  // Dense-block scratch, sized once to the largest SCC.
  check_dense_block_limit(t_.max_block);
  const std::size_t kmax = std::max<std::size_t>(t_.max_block, 1);
  auto b = a.make_span<double>(kmax * P);         // point-major RHS
  auto M = a.make_span<double>(kmax * kmax * P);  // point-major blocks
  auto Mp = a.make_span<double>(kmax * kmax);     // one point's block
  auto ipiv = a.make_span<std::uint32_t>(kmax);
  auto lane = a.make_span<double>(3 * P);  // lu_solve_point_major scratch
  auto lane_piv = a.make_span<std::uint32_t>(kmax * P);
  // Factor-reuse scratch.
  std::span<double> scale, G;
  std::span<std::uint32_t> head, member;
  if (opts.factor_reuse && t_.max_block > 1) {
    scale = a.make_span<double>(P);
    G = a.make_span<double>(kmax * P);  // grouped RHS, component-major
    head = a.make_span<std::uint32_t>(P);
    member = a.make_span<std::uint32_t>(P);
  }

  // Higher component id = earlier in topological order (sources first) —
  // the scalar solve's order, mirrored exactly.
  for (std::size_t c = t_.components.size(); c-- > 0;) {
    const auto& block = t_.components[c];
    const auto cc = static_cast<std::uint32_t>(c);
    if (block.size() == 1) {
      const auto j = block[0];
      const double* ej = exit.data() + static_cast<std::size_t>(j) * P;
      for (std::size_t p = 0; p < P; ++p) {
        if (ej[p] <= 0.0) {
          throw std::runtime_error(
              "AbsorbingAnalyzer: transient state with zero exit rate");
        }
      }
      // External inflow + initial mass, accumulated per point in the
      // scalar external_b's in-CSR order.
      double* bj = b.data();
      const double init = j == t_.init_compact ? 1.0 : 0.0;
      for (std::size_t p = 0; p < P; ++p) bj[p] = init;
      for (std::uint32_t k = t_.in_offsets[j]; k < t_.in_offsets[j + 1];
           ++k) {
        const auto& in = t_.in_edges[k];
        if (t_.scc.component[in.src] == cc) continue;
        const double* ts = tau.data() + static_cast<std::size_t>(in.src) * P;
        const double* er = rates + static_cast<std::size_t>(in.edge) * P;
        for (std::size_t p = 0; p < P; ++p) bj[p] += ts[p] * er[p];
      }
      double* tj = tau.data() + static_cast<std::size_t>(j) * P;
      for (std::size_t p = 0; p < P; ++p) tj[p] = bj[p] / ej[p];
      continue;
    }
    const std::size_t k = block.size();
    // Point-major assembly:  M[(r·k+c)·P + p],  b[r·P + p].  The scalar
    // solve accumulates b (cross-component in-edges) and the block
    // coefficients (same-component in-edges) from the same ordered
    // in-CSR scan; the targets are disjoint, so one interleaved scan
    // reproduces both accumulation sequences bitwise.
    std::fill_n(M.data(), k * k * P, 0.0);
    for (std::size_t r = 0; r < k; ++r) {
      local[block[r]] = static_cast<std::uint32_t>(r);
    }
    for (std::size_t r = 0; r < k; ++r) {
      const auto j = block[r];
      double* diag = M.data() + (r * k + r) * P;
      const double* ej = exit.data() + static_cast<std::size_t>(j) * P;
      for (std::size_t p = 0; p < P; ++p) diag[p] = ej[p];
      double* br = b.data() + r * P;
      const double init = j == t_.init_compact ? 1.0 : 0.0;
      for (std::size_t p = 0; p < P; ++p) br[p] = init;
      for (std::uint32_t e = t_.in_offsets[j]; e < t_.in_offsets[j + 1];
           ++e) {
        const auto& in = t_.in_edges[e];
        const double* er = rates + static_cast<std::size_t>(in.edge) * P;
        if (t_.scc.component[in.src] != cc) {
          const double* ts =
              tau.data() + static_cast<std::size_t>(in.src) * P;
          for (std::size_t p = 0; p < P; ++p) br[p] += ts[p] * er[p];
        } else {
          double* mrc = M.data() + (r * k + local[in.src]) * P;
          for (std::size_t p = 0; p < P; ++p) mrc[p] -= er[p];
        }
      }
    }

    // Per-point path: every point's block factored and solved, all P
    // at once in place — bitwise the scalar substitute() path (same
    // pivots and arithmetic per point, see lu_solve_point_major).
    auto solve_per_point = [&]() {
      linalg::lu_solve_point_major(M.first(k * k * P), b.first(k * P), k, P,
                                   lane, lane_piv);
      for (std::size_t r = 0; r < k; ++r) {
        std::copy_n(b.data() + r * P, P,
                    tau.data() + static_cast<std::size_t>(block[r]) * P);
      }
      res.blocks_factored += P;
    };

    bool can_normalise = opts.factor_reuse;
    if (can_normalise) {
      // Normalisation scale 2^-e, with 2^e the power of two bracketing
      // the head state's exit rate (block diagonal (0,0)).  Scaling by a
      // power of two is EXACT, so N_p = M_p·2^-e keeps every mantissa:
      // factoring N_p chooses the same pivots and produces the scalar
      // factorisation's values scaled by 2^-e, and the substitution
      // returns bitwise the raw-block solution — factor reuse never
      // perturbs the arithmetic, it only shares work.  (Multiplying by
      // the exact reciprocal rounds exactly as dividing by 2^e would.)
      // The (0,0) entry is positive and normal in any well-posed solve;
      // bail out to the per-point path on a degenerate one.  For biased
      // exponent E of the pivot, 2^-e is the double with biased
      // exponent 2046 − E (normal while the pivot is below 2^1023).
      for (std::size_t p = 0; p < P; ++p) {
        const double pivot = M[p];  // entry (0,0), point-major row 0
        if (!(std::isnormal(pivot) && pivot > 0.0 && pivot < 0x1p1023)) {
          can_normalise = false;
          break;
        }
        const std::uint64_t e = std::bit_cast<std::uint64_t>(pivot) >> 52;
        scale[p] = std::bit_cast<double>((2046 - e) << 52);
      }
    }
    if (can_normalise) {
      // Points whose normalised blocks N_p = M_p·2^-e_p are bitwise
      // identical (identical blocks, or exact power-of-two multiples —
      // the common-scalar-multiple structure of rate-scaled sweeps)
      // share one factorisation; tau_p then depends only on (N_p, b_p,
      // e_p), never on which points share the batch.
      const auto same_normalised = [&](std::size_t p, std::size_t q) {
        for (std::size_t rc = 0; rc < k * k; ++rc) {
          if (std::bit_cast<std::uint64_t>(M[rc * P + p] * scale[p]) !=
              std::bit_cast<std::uint64_t>(M[rc * P + q] * scale[q])) {
            return false;
          }
        }
        return true;
      };
      bool shared = false;
      for (std::size_t p = 0; p < P; ++p) {
        head[p] = static_cast<std::uint32_t>(p);
        for (std::size_t q = 0; q < p; ++q) {
          if (head[q] != q) continue;  // compare against group heads only
          if (same_normalised(p, q)) {
            head[p] = static_cast<std::uint32_t>(q);
            shared = true;
            break;
          }
        }
      }
      // With no group of two, each group's solve would be the per-point
      // path's bits (the scaling is exact) at extra cost.
      can_normalise = shared;
    }
    if (!can_normalise) {
      solve_per_point();
    } else {
      for (std::size_t h = 0; h < P; ++h) {
        if (head[h] != h) continue;
        std::size_t n_g = 0;
        for (std::size_t p = 0; p < P; ++p) {
          if (head[p] == h) member[n_g++] = static_cast<std::uint32_t>(p);
        }
        for (std::size_t rc = 0; rc < k * k; ++rc) {
          Mp[rc] = M[rc * P + h] * scale[h];  // N_h
        }
        linalg::LuFactorView view{Mp.first(k * k), ipiv.first(k), k};
        view.factor();
        ++res.blocks_factored;
        // Scaled right-hand sides g_p = b_p·2^-e_p, component-major.
        for (std::size_t r = 0; r < k; ++r) {
          double* gr = G.data() + r * n_g;
          for (std::size_t g = 0; g < n_g; ++g) {
            const std::size_t p = member[g];
            gr[g] = b[r * P + p] * scale[p];
          }
        }
        view.solve_many(G.first(k * n_g), n_g);
        for (std::size_t r = 0; r < k; ++r) {
          const double* gr = G.data() + r * n_g;
          for (std::size_t g = 0; g < n_g; ++g) {
            tau[static_cast<std::size_t>(block[r]) * P + member[g]] = gr[g];
          }
        }
        res.blocks_reused += n_g - 1;
      }
    }
    for (std::size_t r = 0; r < k; ++r) {
      local[block[r]] = UINT32_MAX;  // reset for the next block
    }
  }

  res.solver_blocks = t_.components.size();
  res.converged = true;
  double* mtta = res.mtta.data();
  for (std::size_t i = 0; i < nt; ++i) {
    const double* ti = tau.data() + i * P;
    double* so =
        res.sojourn.data() + static_cast<std::size_t>(t_.expand[i]) * P;
    for (std::size_t p = 0; p < P; ++p) so[p] = ti[p];
    for (std::size_t p = 0; p < P; ++p) mtta[p] += ti[p];
  }

  // Absorption probabilities: flow into each absorbing state, in the
  // scalar pass's state/edge order per point.
  for (std::size_t i = 0; i < nt; ++i) {
    const double* ti = tau.data() + i * P;
    for (std::uint32_t k = t_.abs_offsets[i]; k < t_.abs_offsets[i + 1]; ++k) {
      const auto& ae = t_.abs_edges[k];
      double* ap = res.absorb_probability.data() +
                   static_cast<std::size_t>(ae.dst) * P;
      const double* er = rates + static_cast<std::size_t>(ae.edge) * P;
      for (std::size_t p = 0; p < P; ++p) ap[p] += ti[p] * er[p];
    }
  }
  return res;
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
