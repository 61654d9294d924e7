// θ-method transient integrator: validated against closed forms,
// against uniformisation (a completely different numerical path to the
// same quantity), against a dense backward recurrence on its own grid,
// and step for step against the scalar substitution oracle.
#include "spn/reliability_ode.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "oracle/dense_lu.h"
#include "oracle/substitution.h"
#include "oracle/transient.h"

namespace {

using namespace midas::spn;

/// R(t_j) from the graph's initial state: the survival query every
/// caller makes of the integrator.
std::vector<double> survival(const ReliabilityOde& ode,
                             std::span<const double> times) {
  return ode.propagate({}, times.back(), times).survival_at;
}

TEST(ReliabilityOde, TwoStateExponentialSurvival) {
  const double lambda = 0.35;
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("fail").input(p).rate(lambda).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const std::vector<double> times{0.0, 0.5, 1.0, 3.0, 10.0};
  const auto r = survival(ode, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(r[i], std::exp(-lambda * times[i]), 2e-4)
        << "t=" << times[i];
  }
}

TEST(ReliabilityOde, ErlangSurvivalMatchesClosedForm) {
  const int k = 4;
  const double lambda = 2.0;
  PetriNet net;
  const auto p = net.add_place("Stages", k);
  net.transition("stage").input(p).rate(lambda).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const std::vector<double> times{0.1, 0.5, 1.0, 2.0, 4.0};
  const auto r = survival(ode, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    // Erlang(k, λ) survival = Σ_{j<k} e^{-λt}(λt)^j / j!.
    double surv = 0.0;
    double term = 1.0;
    for (int j = 0; j < k; ++j) {
      if (j > 0) term *= lambda * times[i] / j;
      surv += std::exp(-lambda * times[i]) * term;
    }
    EXPECT_NEAR(r[i], surv, 3e-4) << "t=" << times[i];
  }
}

TEST(ReliabilityOde, AgreesWithUniformisation) {
  // Death chain with state-dependent rates: no simple closed form, so
  // cross-check the two independent transient solvers.
  PetriNet net;
  const auto a = net.add_place("A", 6);
  net.transition("die")
      .input(a)
      .rate([a](const Marking& m) { return 0.4 * m[a]; })
      .add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);
  const TransientAnalyzer uni(g);

  const std::vector<double> times{0.2, 1.0, 2.5, 6.0};
  const auto r = survival(ode, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(r[i], 1.0 - uni.absorbed_probability_at(times[i]), 5e-4)
        << "t=" << times[i];
  }
}

TEST(ReliabilityOde, StiffSystemStaysStableAndMonotone) {
  // Rates spanning 6 orders of magnitude: uniformisation would need
  // ~1e7 iterations for the final time point; the implicit integrator
  // must stay monotone in [0, 1].
  PetriNet net;
  const auto fast = net.add_place("Fast", 1);
  const auto slow = net.add_place("Slow", 0);
  net.transition("relax").input(fast).output(slow).rate(1e4).add();
  net.transition("fail").input(slow).rate(1e-2).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const std::vector<double> times{1e-4, 1e-2, 1.0, 50.0, 500.0};
  const auto r = survival(ode, times);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_GE(r[i], 0.0);
    EXPECT_LE(r[i], 1.0);
    if (i > 0) EXPECT_LE(r[i], r[i - 1] + 1e-12);
  }
  // Survival at 500 s ≈ exp(-0.01·500) once the fast mode has relaxed.
  EXPECT_NEAR(r.back(), std::exp(-5.0), 5e-3);
}

TEST(ReliabilityOde, StiffCycleStepIsExact) {
  // A ⇄ B at 1e3/s each way with a 1e-3/s exit from A: one 100 s
  // Crank–Nicolson step couples the two states by 5e4 per unit.  The
  // step must be the exact 2×2 solve — (I − 50Q)w₁ = (I + 50Q)w₀ gives
  // Σw₁ = 97501/102501.05.  (A Gauss–Seidel step capped at 1,000 sweeps
  // stopped at 0.99804, 4.9% high, without reporting an error.)
  PetriNet net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  net.transition("ab").input(a).output(b).rate(1e3).add();
  net.transition("ba").input(b).output(a).rate(1e3).add();
  net.transition("die").input(a).rate(1e-3).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const auto absorbing = g.absorbing_mask();
  std::vector<double> w0(g.num_states(), 0.0);
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    if (!absorbing[s]) w0[s] = 0.5;
  }
  ReliabilityOdeOptions opts;
  opts.uniform_step_s = 100.0;
  const auto res = ode.propagate(w0, 100.0, {}, opts);
  double mass = 0.0;
  for (const double w : res.weights) mass += w;
  const double exact = 9750100.0 / 10250105.0;
  EXPECT_NEAR(mass, exact, 1e-12 * exact);
}

TEST(ReliabilityOde, InputValidation) {
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("fail").input(p).rate(1.0).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const std::vector<double> bad{2.0, 1.0};
  EXPECT_THROW((void)survival(ode, bad), std::invalid_argument);
  const std::vector<double> neg{-1.0};
  EXPECT_THROW((void)survival(ode, neg), std::invalid_argument);
  // A NaN passes every < / > comparison; it must still be rejected, by
  // index, rather than stall the emit cursor.
  const std::vector<double> nan_inside{
      1e3, std::numeric_limits<double>::quiet_NaN(), 5e3};
  try {
    (void)ode.propagate({}, 5e3, nan_inside);
    FAIL() << "a NaN emit time must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("emit_times[1]"), std::string::npos)
        << e.what();
  }
}

TEST(ReliabilityOde, PropagateRejectsBadInitialMass) {
  // propagate's precondition, checked as solve_from's is: a NaN, mass at
  // an absorbing state or an entry negative beyond rounding throws,
  // naming the index and its marking, instead of dropping out of R(t)
  // and the MTTSF or flowing into them.
  PetriNet net;
  const auto a = net.add_place("A", 3);
  net.transition("die")
      .input(a)
      .rate([a](const Marking& m) { return 1.0 * m[a]; })
      .add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);
  const auto absorbing = g.absorbing_mask();
  std::size_t dead = 0, alive = 0;
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    if (absorbing[s]) {
      dead = s;
    } else if (s != g.initial) {
      alive = s;
    }
  }
  ASSERT_TRUE(absorbing[dead]);
  ASSERT_FALSE(absorbing[alive]);

  const auto expect_rejected = [&](const std::vector<double>& mass,
                                   std::size_t at, const std::string& defect) {
    try {
      (void)ode.propagate(mass, 1.0, {});
      FAIL() << "expected std::invalid_argument for " << defect;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("propagate: initial[" + std::to_string(at) + "]"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find(defect), std::string::npos) << msg;
      EXPECT_NE(msg.find(g.states[at].to_string()), std::string::npos)
          << msg;
    }
  };
  std::vector<double> mass(g.num_states(), 0.0);
  mass[g.initial] = 0.75;
  mass[alive] = 0.25;
  EXPECT_NO_THROW((void)ode.propagate(mass, 1.0, {}));

  auto absorbed = mass;
  absorbed[dead] = 1e-3;
  expect_rejected(absorbed, dead, "absorbing");
  auto nan_mass = mass;
  nan_mass[alive] = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(nan_mass, alive, "not finite");
  auto negative = mass;
  negative[alive] = -1e-6;
  expect_rejected(negative, alive, "negative");
  // Within rounding of zero is what a θ-step leaves behind: accepted.
  auto rounding = mass;
  rounding[alive] = -1e-18;
  EXPECT_NO_THROW((void)ode.propagate(rounding, 1.0, {}));
}

TEST(ReliabilityOde, ThetaStepsAreBitwiseTheScalarOracle) {
  // propagate's Crank–Nicolson steps run TransientStructure::substitute
  // with shift 1/(θh); the same steps on the scalar pass in tests/oracle
  // must give the same weights, occupancy, absorbed mass and survival
  // integral, bit for bit.  X ⇄ Y flips with a death from X: the states
  // with k live tokens form one (k+1)-state block, so every step solves
  // dense blocks of 2, 3 and 4 states beside singletons.
  PetriNet net;
  const auto x = net.add_place("X", 3);
  const auto y = net.add_place("Y", 0);
  net.transition("flip").input(x).output(y).rate(2.0).add();
  net.transition("flop").input(y).output(x).rate(1.5).add();
  net.transition("die")
      .input(x)
      .rate([x](const Marking& m) { return 0.3 * m[x]; })
      .add();
  const auto g = explore(net);
  const TransientStructure t(g);
  ASSERT_EQ(t.max_block, 4u);
  const ReliabilityOde ode(g);
  ReliabilityOdeOptions opts;
  opts.uniform_step_s = 0.25;
  const auto res = ode.propagate({}, 1.0, {}, opts);

  std::vector<double> rates;
  for (const auto& e : g.edges) rates.push_back(e.rate);
  const std::size_t nt = t.size();
  std::vector<double> exit(nt);
  oracle::exit_rates(t, rates, exit);
  auto scratch = oracle::make_scratch(t);
  std::vector<double> w(nt, 0.0), rhs(nt), occupancy(nt, 0.0);
  w[t.init_compact] = 1.0;
  double s_prev = 1.0, integral = 0.0;
  const double step = 0.25;
  for (int j = 0; j < 4; ++j) {
    const double shift = 1.0 / (0.5 * step);
    for (std::size_t r = 0; r < nt; ++r) {
      double qtw = -exit[r] * w[r];
      for (std::uint32_t k = t.in_offsets[r]; k < t.in_offsets[r + 1]; ++k) {
        qtw += rates[t.in_edges[k].edge] * w[t.in_edges[k].src];
      }
      rhs[r] = (w[r] + 0.5 * step * qtw) * shift;
    }
    w.swap(rhs);
    oracle::substitute(t, rates, exit, shift, w, scratch);
    double s_now = 0.0;
    for (const double v : w) s_now += v;
    integral += 0.5 * step * (s_prev + s_now);
    for (std::size_t c = 0; c < nt; ++c) {
      occupancy[c] += 0.5 * step * (rhs[c] + w[c]);
    }
    s_prev = s_now;
  }
  std::vector<double> absorbed(g.num_states(), 0.0);
  oracle::absorption_flow(t, rates, occupancy, absorbed);

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(res.survival_integral), bits(integral));
  for (std::size_t c = 0; c < nt; ++c) {
    EXPECT_EQ(bits(res.weights[t.expand[c]]), bits(w[c])) << "state " << c;
    EXPECT_EQ(bits(res.occupancy[t.expand[c]]), bits(occupancy[c]))
        << "state " << c;
  }
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    EXPECT_EQ(bits(res.absorbed[s]), bits(absorbed[s])) << "state " << s;
  }
}

// --- propagate(): the adjoint forward integrator that phased missions
// chain across segment boundaries (core::MissionAnalyzer).

/// The backward θ-recurrence u_j = (I − θhQ)⁻¹(I + (1−θ)hQ)·u_{j−1}
/// from u_0 = 1 on the transient states, on dense full-state matrices
/// and the integrator's default grid (θ = 1/2, 800 log-spaced steps over
/// 8 decades), with u_init linearly interpolated at `times`.
std::vector<double> dense_backward_survival(const ReachabilityGraph& g,
                                            std::span<const double> times) {
  const std::size_t n = g.num_states();
  std::vector<double> q(n * n, 0.0);  // row-major generator
  for (const auto& e : g.edges) {
    if (e.src == e.dst) continue;
    q[e.src * n + e.dst] += e.rate;
    q[e.src * n + e.src] -= e.rate;
  }
  const auto absorbing = g.absorbing_mask();
  std::vector<double> u(n);
  for (std::size_t s = 0; s < n; ++s) u[s] = absorbing[s] ? 0.0 : 1.0;

  const std::size_t steps = 800;
  std::vector<double> lhs(n * n);
  std::vector<std::uint32_t> ipiv(n);
  std::vector<double> out(times.size());
  std::size_t next = 0;
  double prev_t = 0.0;
  double prev_r = u[g.initial];
  for (std::size_t j = 1; j <= steps; ++j) {
    const double frac =
        static_cast<double>(j) / static_cast<double>(steps);
    const double now = times.back() * std::pow(10.0, -8.0 * (1.0 - frac));
    const double h = now - prev_t;
    std::vector<double> rhs = u;
    for (std::size_t r = 0; r < n; ++r) {
      double qu = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        qu += q[r * n + c] * u[c];
        lhs[r * n + c] = (r == c ? 1.0 : 0.0) - 0.5 * h * q[r * n + c];
      }
      rhs[r] += 0.5 * h * qu;
    }
    midas::linalg::LuFactorView lu{lhs, ipiv, n};
    lu.factor();
    lu.solve_to(rhs, u);
    while (next < times.size() && times[next] <= now) {
      out[next] = prev_r + (times[next] - prev_t) / (now - prev_t) *
                               (u[g.initial] - prev_r);
      ++next;
    }
    prev_t = now;
    prev_r = u[g.initial];
  }
  return out;
}

TEST(ReliabilityOde, PropagateSurvivalMatchesBackwardIntegrator) {
  // Same θ-grid, transposed operator: the forward weight sum Σw(t) and
  // the backward u_init(t) solve the same linear recurrence (the step
  // matrices are functions of one Q, so they commute) and must agree to
  // rounding.
  PetriNet net;
  const auto a = net.add_place("A", 6);
  net.transition("die")
      .input(a)
      .rate([a](const Marking& m) { return 0.4 * m[a]; })
      .add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const std::vector<double> times{0.5, 1.5, 3.0, 6.0};
  const auto backward = dense_backward_survival(g, times);
  const auto fwd = ode.propagate({}, times.back(), times);
  ASSERT_EQ(fwd.survival_at.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(fwd.survival_at[i], backward[i], 1e-9)
        << "t=" << times[i];
  }
  // The boundary weights are the surviving distribution: their sum is
  // the survival at the horizon.
  double mass = 0.0;
  for (const double w : fwd.weights) mass += w;
  EXPECT_NEAR(mass, backward.back(), 1e-9);
}

TEST(ReliabilityOde, PropagateAgreesWithUniformisationShortHorizon) {
  // Cross-check against the completely independent uniformisation
  // solver on a short, non-stiff horizon (where both are sharp).
  PetriNet net;
  const auto p = net.add_place("Stages", 3);
  net.transition("stage").input(p).rate(1.5).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);
  const TransientAnalyzer uni(g);

  const std::vector<double> times{0.25, 0.75, 1.5, 3.0};
  const auto fwd = ode.propagate({}, times.back(), times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(fwd.survival_at[i],
                1.0 - uni.absorbed_probability_at(times[i]), 1e-4)
        << "t=" << times[i];
  }
}

TEST(ReliabilityOde, UniformStepChainingReproducesUnsplitRun) {
  // The phased-mission contract: splitting a horizon at an exact
  // multiple of the uniform step and re-seeding from the boundary
  // weights reproduces the unsplit integration essentially exactly.
  PetriNet net;
  const auto a = net.add_place("A", 5);
  net.transition("die")
      .input(a)
      .rate([a](const Marking& m) { return 0.3 * m[a]; })
      .add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  ReliabilityOdeOptions opts;
  opts.uniform_step_s = 0.1;
  const auto whole = ode.propagate({}, 4.0, {}, opts);
  const auto first = ode.propagate({}, 2.0, {}, opts);
  const auto second = ode.propagate(first.weights, 2.0, {}, opts);

  ASSERT_EQ(whole.weights.size(), second.weights.size());
  for (std::size_t s = 0; s < whole.weights.size(); ++s) {
    EXPECT_NEAR(whole.weights[s], second.weights[s],
                1e-12 * std::max(1.0, std::abs(whole.weights[s])))
        << "state " << s;
  }
  EXPECT_NEAR(whole.survival_integral,
              first.survival_integral + second.survival_integral,
              1e-12 * whole.survival_integral);
}

TEST(ReliabilityOde, PropagateOccupancyAndAbsorbedMassMatchClosedForm) {
  // One state, rate λ: over [0, T] the occupancy ∫w dt is
  // (1 − e^{-λT})/λ and the absorbed mass 1 − e^{-λT}; the surviving
  // and absorbed mass add up to the initial unit.
  const double lambda = 0.8, horizon = 2.0;
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("fail").input(p).rate(lambda).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const auto res = ode.propagate({}, horizon, {});
  ASSERT_EQ(res.occupancy.size(), g.num_states());
  ASSERT_EQ(res.absorbed.size(), g.num_states());
  const auto absorbing = g.absorbing_mask();
  double occupancy = 0.0, absorbed = 0.0, mass = 0.0;
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    if (absorbing[s]) {
      EXPECT_EQ(res.occupancy[s], 0.0) << "state " << s;
      absorbed += res.absorbed[s];
    } else {
      EXPECT_EQ(res.absorbed[s], 0.0) << "state " << s;
      occupancy += res.occupancy[s];
    }
    mass += res.weights[s];
  }
  const double expected_occupancy =
      (1.0 - std::exp(-lambda * horizon)) / lambda;
  const double expected_absorbed = 1.0 - std::exp(-lambda * horizon);
  EXPECT_NEAR(occupancy, expected_occupancy, 1e-3 * expected_occupancy);
  EXPECT_NEAR(absorbed, expected_absorbed, 1e-3 * expected_absorbed);
  EXPECT_NEAR(res.survival_integral, expected_occupancy,
              1e-3 * expected_occupancy);
  EXPECT_NEAR(mass + absorbed, 1.0, 1e-12);
}

TEST(ReliabilityOde, EmptyTimesAndZeroHorizon) {
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("fail").input(p).rate(1.0).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);
  EXPECT_TRUE(ode.propagate({}, 0.0, {}).survival_at.empty());
  const std::vector<double> zero{0.0};
  EXPECT_DOUBLE_EQ(survival(ode, zero)[0], 1.0);
  // A horizon so short that 1/(θh) overflows is still a horizon of
  // (essentially) no time, not a NaN.
  const std::vector<double> tiny{1e-310};
  EXPECT_DOUBLE_EQ(survival(ode, tiny)[0], 1.0);
}

}  // namespace
