// Workloads of the end-to-end benchmark and the request generator that
// turns (workload, seed, request index) into spec JSON text.
//
// The specs are built here from the benchmark's own templates
// (perfbench/specs/<workload>.json), never through
// core::experiment_preset, so an edit to a preset cannot silently change
// what the benchmark measures.  Per request the generator draws a fresh
// Monte-Carlo base seed (below 2^53: the spec validator rejects integers
// JSON cannot carry exactly) and, for analytic_sweep, 40 fresh TIDS
// values log-uniform on [5, 1200] s, so no answer can be reused across
// requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "util/json.h"

namespace perfbench {

/// The four workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument naming the valid workloads.
void require_workload(const std::string& name);

/// Requests the traced run replays (fixed, so its counts repeat exactly
/// for a given seed).
[[nodiscard]] std::size_t traced_requests(const std::string& workload);

class RequestGenerator {
 public:
  RequestGenerator(std::string workload, std::uint64_t seed,
                   midas::util::Json spec_template);

  /// Spec JSON text of request `index` (single-line form).
  [[nodiscard]] std::string request(std::size_t index) const;

  /// The Monte-Carlo base seed request `index` carries.
  [[nodiscard]] std::uint64_t base_seed(std::size_t index) const;
  /// analytic_sweep's TIDS draws for request `index` (ascending); empty
  /// for the other workloads, whose TIDS axes are fixed.
  [[nodiscard]] std::vector<double> t_ids(std::size_t index) const;

 private:
  std::string workload_;
  std::uint64_t seed_;
  std::uint64_t tag_;
  midas::util::Json template_;
};

/// What set-up leaves behind for the timed phase: the long-lived service
/// with warm caches and the workload's parsed template.
struct Ready {
  std::unique_ptr<midas::core::ExperimentService> service;
  midas::core::ExperimentSpec spec;
  midas::util::Json spec_json;
  std::size_t voting_tables = 0;
};

/// Hooks that let the traced run time the set-up steps; all optional.
struct SetupProbe {
  virtual ~SetupProbe() = default;
  virtual void begin(const std::string& /*name*/) {}
  virtual void end() {}
};

/// Cold set-up: reads and validates the workload template, builds the
/// service with `threads` workers, and fills the long-lived caches by
/// warm-up calls to public functions for every configuration the
/// workload touches: the voting tables (process-wide memo), the
/// explored SPN structures (the service's SweepEngine) and the
/// DesContexts.
[[nodiscard]] Ready set_up(const std::string& spec_dir,
                           const std::string& workload, std::size_t threads,
                           SetupProbe* probe = nullptr);

}  // namespace perfbench
