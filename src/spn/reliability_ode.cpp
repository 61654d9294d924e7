#include "spn/reliability_ode.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/arena.h"

namespace midas::spn {

namespace {

constexpr double kTheta = 0.5;    // Crank–Nicolson
constexpr double kDecades = 8.0;  // log grid spans horizon·10^-8 .. horizon

/// The θ-grid over [0, horizon]: log-spaced by default, uniform when
/// opts.uniform_step_s > 0.
std::vector<double> make_grid(double horizon,
                              const ReliabilityOdeOptions& opts) {
  std::vector<double> grid{0.0};
  if (opts.uniform_step_s > 0.0) {
    // Uniform steps: k·h up to the horizon (last step truncated).  A
    // horizon split at an exact multiple of h reproduces the unsplit
    // step sequence exactly.
    const double h = opts.uniform_step_s;
    const auto whole = static_cast<std::size_t>(std::floor(horizon / h));
    grid.reserve(whole + 2);
    for (std::size_t j = 1; j <= whole; ++j) {
      grid.push_back(static_cast<double>(j) * h);
    }
    if (grid.back() < horizon) grid.push_back(horizon);
    return grid;
  }
  // Log-spaced integration grid: small first steps resolve the fast
  // initial transient; the per-step relative growth stays at
  // 10^(decades/steps) − 1 (≈ 2.3% at the defaults), well inside the
  // θ-method's accurate regime.
  grid.reserve(opts.steps + 1);
  for (std::size_t j = 1; j <= opts.steps; ++j) {
    const double frac = static_cast<double>(j) /
                        static_cast<double>(opts.steps);
    grid.push_back(horizon * std::pow(10.0, -kDecades * (1.0 - frac)));
  }
  return grid;
}

}  // namespace

ReliabilityOde::ReliabilityOde(const ReachabilityGraph& graph,
                               std::span<const double> edge_rates)
    : graph_(graph), t_(graph) {
  if (!edge_rates.empty() && edge_rates.size() != graph.edges.size()) {
    throw std::invalid_argument(
        "ReliabilityOde: edge_rates size " +
        std::to_string(edge_rates.size()) + " does not match edge count " +
        std::to_string(graph.edges.size()));
  }
  if (edge_rates.empty()) {
    rates_.reserve(graph.edges.size());
    for (const auto& e : graph.edges) rates_.push_back(e.rate);
  } else {
    rates_.assign(edge_rates.begin(), edge_rates.end());
  }
}

ForwardResult ReliabilityOde::propagate(
    std::span<const double> initial, double duration,
    std::span<const double> emit_times,
    const ReliabilityOdeOptions& opts) const {
  // Emit times first, so a NaN or infinite horizon handed down from
  // reliability_at (duration = times.back()) is named by its index.
  for (std::size_t i = 0; i < emit_times.size(); ++i) {
    const double t = emit_times[i];
    if (!std::isfinite(t) || t < 0.0 || (i > 0 && t < emit_times[i - 1])) {
      throw std::invalid_argument(
          "propagate: emit_times[" + std::to_string(i) + "] = " +
          std::to_string(t) +
          " is not finite, non-negative and ascending");
    }
  }
  if (!(duration >= 0.0) || std::isinf(duration)) {
    throw std::invalid_argument(
        "propagate: duration must be finite and non-negative");
  }
  if (!emit_times.empty() && emit_times.back() > duration) {
    throw std::invalid_argument(
        "propagate: emit_times[" + std::to_string(emit_times.size() - 1) +
        "] lies beyond the duration");
  }
  if (!initial.empty()) {
    check_transient_mass(initial, graph_, "propagate: initial");
  }
  const std::size_t n = graph_.num_states();

  ForwardResult res;
  res.weights.assign(n, 0.0);
  res.occupancy.assign(n, 0.0);
  res.absorbed.assign(n, 0.0);
  res.survival_at.assign(emit_times.size(), 0.0);
  const std::size_t nt = t_.size();
  if (nt == 0) return res;

  // Compact working distribution.
  std::vector<double> w(nt, 0.0);
  if (initial.empty()) {
    if (t_.init_compact == UINT32_MAX) return res;  // starts absorbed
    w[t_.init_compact] = 1.0;
  } else {
    for (std::size_t c = 0; c < nt; ++c) w[c] = initial[t_.expand[c]];
  }

  const auto total = [&](const std::vector<double>& x) {
    double acc = 0.0;
    for (const double v : x) acc += v;
    return acc;
  };

  std::vector<double> occupancy(nt, 0.0);  // compact ∫w dt
  const auto scatter = [&] {
    for (std::size_t c = 0; c < nt; ++c) {
      res.weights[t_.expand[c]] = w[c];
      res.occupancy[t_.expand[c]] = occupancy[c];
    }
    t_.absorption_flow(rates_, occupancy, res.absorbed, 1);
  };

  std::size_t next_emit = 0;
  double s_prev = total(w);
  auto emit_upto = [&](double prev_now, double now, double s_now) {
    while (next_emit < emit_times.size() && emit_times[next_emit] <= now) {
      const double t = emit_times[next_emit];
      const double frac =
          now > prev_now ? (t - prev_now) / (now - prev_now) : 1.0;
      res.survival_at[next_emit] =
          std::clamp(s_prev + frac * (s_now - s_prev), 0.0, 1.0);
      ++next_emit;
    }
  };
  if (duration == 0.0) {
    emit_upto(0.0, 0.0, s_prev);
    scatter();
    return res;
  }

  const std::vector<double> grid = make_grid(duration, opts);

  // Sized once per call: the step loop below allocates nothing.
  std::vector<double> exit(nt);
  t_.exit_rates(rates_, exit, 1);
  util::Arena arena;
  auto scratch = t_.make_scratch(1, arena);
  std::vector<double> rhs(nt);

  double prev_now = 0.0;
  for (std::size_t j = 1; j < grid.size(); ++j) {
    // θ-step of the adjoint system
    //   (I − θhQᵀ) w_new = w_old + (1−θ)h Qᵀ w_old,
    // divided through by θh (see the header).  A step too short for
    // 1/(θh) to be finite (a sub-1e-308 horizon) leaves w unchanged to
    // working precision.
    const double step = grid[j] - grid[j - 1];
    const double shift = 1.0 / (kTheta * step);
    const bool stepped = std::isfinite(shift);
    if (stepped) {
      const double explicit_h = (1.0 - kTheta) * step;
      for (std::size_t r = 0; r < nt; ++r) {
        double qtw = -exit[r] * w[r];
        for (std::uint32_t k = t_.in_offsets[r]; k < t_.in_offsets[r + 1];
             ++k) {
          const auto& in = t_.in_edges[k];
          qtw += rates_[in.edge] * w[in.src];
        }
        rhs[r] = (w[r] + explicit_h * qtw) * shift;
      }
      w.swap(rhs);
      t_.substitute(rates_, exit, shift, w, scratch);
    }

    // Trapezoid accumulation of the survival time and the occupancy
    // over this step (after a step, rhs holds the previous iterate),
    // then interpolated emissions.
    const double now = grid[j];
    const double s_now = total(w);
    res.survival_integral += 0.5 * step * (s_prev + s_now);
    const std::vector<double>& w_prev = stepped ? rhs : w;
    for (std::size_t c = 0; c < nt; ++c) {
      occupancy[c] += 0.5 * step * (w_prev[c] + w[c]);
    }
    emit_upto(prev_now, now, s_now);
    prev_now = now;
    s_prev = s_now;
  }
  scatter();
  return res;
}

}  // namespace midas::spn
