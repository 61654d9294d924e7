// Run stamp and measurement helpers shared by the untraced and traced
// modes: the hardware/build stamp every output carries, process CPU
// time, peak RSS, medians and the metric JSON the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

struct RunInfo {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t threads = 0;
  std::string commit = "unknown";
};

/// nproc, compiler and version, build type and flags, worker threads,
/// seed and git commit.
[[nodiscard]] midas::util::Json stamp(const RunInfo& info);

/// Worker threads of the service: half the hardware threads, at least 1.
[[nodiscard]] std::size_t default_threads();

/// Process user+sys CPU time, in seconds.
[[nodiscard]] double cpu_now();

/// VmHWM of this process in MB (0 when /proc is unavailable).
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> values);

/// Adds {"value": v, "unit": unit} under `name`.
void put_metric(midas::util::Json& metrics, const std::string& name,
                double value, const std::string& unit);

}  // namespace perfbench
