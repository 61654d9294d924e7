#include "checks.h"

#include <cmath>
#include <exception>

namespace perfbench {

namespace mc = midas::core;

namespace {

bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

std::string at_point(mc::BackendKind kind, std::size_t i) {
  return mc::to_string(kind) + " point " + std::to_string(i);
}

}  // namespace

std::vector<std::string> check_answer(const mc::ExperimentSpec& spec,
                                      const mc::ExperimentResult& result,
                                      const std::string& result_text) {
  std::vector<std::string> failures;
  const std::size_t n = spec.grid().num_points();
  if (result.range.begin != 0 || result.range.end != n) {
    failures.push_back("result covers [" + std::to_string(result.range.begin) +
                       ", " + std::to_string(result.range.end) +
                       ") of a " + std::to_string(n) + "-point grid");
  }

  const mc::BackendRun* analytic = nullptr;
  for (const mc::BackendKind kind : spec.backends) {
    const mc::BackendRun* run = result.find(kind);
    if (run == nullptr) {
      failures.push_back(mc::to_string(kind) + " did not answer");
      continue;
    }
    if (kind == mc::BackendKind::Analytic) {
      analytic = run;
      if (run->evals.size() != n) {
        failures.push_back("analytic answered " +
                           std::to_string(run->evals.size()) + " of " +
                           std::to_string(n) + " points");
        analytic = nullptr;
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (!positive_finite(run->evals[i].mttsf) ||
            !positive_finite(run->evals[i].ctotal)) {
          failures.push_back(at_point(kind, i) +
                             ": MTTSF or Ctotal not finite and positive");
        }
      }
      continue;
    }
    if (run->mc.size() != n) {
      failures.push_back(mc::to_string(kind) + " answered " +
                         std::to_string(run->mc.size()) + " of " +
                         std::to_string(n) + " points");
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r = run->mc[i];
      if (r.replications == 0 || !positive_finite(r.ttsf.mean) ||
          !positive_finite(r.cost_rate.mean)) {
        failures.push_back(at_point(kind, i) +
                           ": TTSF or cost rate not finite and positive");
      }
      if (!r.keys_always_agreed) {
        failures.push_back(at_point(kind, i) + ": group keys disagreed");
      }
      if (r.timeouts != 0) {
        failures.push_back(at_point(kind, i) + ": " +
                           std::to_string(r.timeouts) +
                           " trajectories timed out");
      }
    }
  }

  // Cross-validation against the analytic answer.
  if (analytic != nullptr) {
    for (const mc::BackendKind kind : spec.backends) {
      const mc::BackendRun* run = result.find(kind);
      if (kind == mc::BackendKind::Analytic || run == nullptr ||
          run->mc.size() != n) {
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const double exact = analytic->evals[i].mttsf;
        const auto& ttsf = run->mc[i].ttsf;
        if (kind == mc::BackendKind::Des) {
          const double band = kDesBand * ttsf.ci_half_width;
          if (!(std::fabs(ttsf.mean - exact) <= band)) {
            failures.push_back(at_point(kind, i) + ": TTSF " +
                               std::to_string(ttsf.mean) + " is more than " +
                               std::to_string(kDesBand) +
                               " half-widths from analytic MTTSF " +
                               std::to_string(exact));
          }
        } else if (!(ttsf.mean <= kProtocolFactor * exact &&
                     exact <= kProtocolFactor * ttsf.mean)) {
          failures.push_back(at_point(kind, i) + ": TTSF " +
                             std::to_string(ttsf.mean) + " is not within " +
                             std::to_string(kProtocolFactor) +
                             "x of analytic MTTSF " + std::to_string(exact));
        }
      }
    }
  }

  try {
    const auto reparsed = mc::ExperimentResult::from_json(
        midas::util::Json::parse(result_text));
    if (reparsed.to_json().dump() != result_text) {
      failures.push_back("result JSON does not re-parse to the same bytes");
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string("result JSON does not re-parse: ") +
                       e.what());
  }
  return failures;
}

}  // namespace perfbench
