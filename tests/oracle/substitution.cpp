#include "oracle/substitution.h"

#include <algorithm>
#include <stdexcept>

#include "oracle/dense_lu.h"

namespace midas::spn::oracle {

void exit_rates(const TransientStructure& t,
                std::span<const double> edge_rates, std::span<double> out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    double acc = 0.0;
    for (std::uint32_t k = t.exit_offsets[i]; k < t.exit_offsets[i + 1];
         ++k) {
      acc += edge_rates[t.exit_edges[k]];
    }
    out[i] = acc;
  }
}

Scratch make_scratch(const TransientStructure& t) {
  Scratch s;
  s.local.assign(t.size(), UINT32_MAX);
  s.lu.resize(t.max_block * t.max_block);
  s.ipiv.resize(t.max_block);
  s.rhs.resize(t.max_block);
  return s;
}

void substitute(const TransientStructure& t,
                std::span<const double> edge_rates,
                std::span<const double> exit_rate, double shift,
                std::span<double> x, Scratch& scratch) {
  auto& local = scratch.local;
  // Higher component id = earlier in topological order (sources first).
  for (std::size_t c = t.components.size(); c-- > 0;) {
    const auto& block = t.components[c];
    const auto cc = static_cast<std::uint32_t>(c);
    // b_j plus the inflow from already-solved predecessor components.
    const auto external_b = [&](std::uint32_t j) {
      double b = x[j];
      for (std::uint32_t k = t.in_offsets[j]; k < t.in_offsets[j + 1]; ++k) {
        const auto& in = t.in_edges[k];
        if (t.scc.component[in.src] != cc) {
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
            "oracle::substitute: transient state with zero exit rate");
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
      for (std::uint32_t e = t.in_offsets[j]; e < t.in_offsets[j + 1]; ++e) {
        const auto& in = t.in_edges[e];
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

void absorption_flow(const TransientStructure& t,
                     std::span<const double> edge_rates,
                     std::span<const double> x, std::span<double> absorbed) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (std::uint32_t k = t.abs_offsets[i]; k < t.abs_offsets[i + 1]; ++k) {
      const auto& ae = t.abs_edges[k];
      absorbed[ae.dst] += x[i] * edge_rates[ae.edge];
    }
  }
}

AbsorbingResult solve_from(const ReachabilityGraph& graph,
                           std::span<const double> initial_mass,
                           std::span<const double> edge_rates) {
  const TransientStructure t(graph);
  const std::size_t n = graph.num_states();
  const std::size_t nt = t.size();

  AbsorbingResult res;
  res.sojourn.assign(n, 0.0);
  if (nt == 0) {
    res.mtta = 0.0;
    res.absorb_probability.assign(n, 0.0);
    if (initial_mass.empty()) res.absorb_probability[graph.initial] = 1.0;
    return res;
  }

  // Sojourn balance  exit_j·τ_j − Σ_{i→j} r_ij·τ_i = π0_j  with no
  // diagonal shift.
  std::vector<double> exit_rate(nt);
  exit_rates(t, edge_rates, exit_rate);
  std::vector<double> tau(nt, 0.0);
  if (initial_mass.empty()) {
    tau[t.init_compact] = 1.0;
  } else {
    for (std::size_t j = 0; j < nt; ++j) {
      tau[j] = initial_mass[t.expand[j]];
    }
  }
  auto scratch = make_scratch(t);
  substitute(t, edge_rates, exit_rate, 0.0, tau, scratch);

  res.solver_blocks = t.components.size();
  double mtta = 0.0;
  for (std::size_t i = 0; i < nt; ++i) {
    res.sojourn[t.expand[i]] = tau[i];
    mtta += tau[i];
  }
  res.mtta = mtta;

  res.absorb_probability.assign(n, 0.0);
  absorption_flow(t, edge_rates, tau, res.absorb_probability);
  return res;
}

}  // namespace midas::spn::oracle
