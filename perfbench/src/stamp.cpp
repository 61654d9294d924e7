#include "stamp.h"

#include <time.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

using midas::util::Json;

Json stamp(const RunInfo& info) {
  Json s = Json::object();
  s.set("nproc",
        Json(static_cast<double>(std::thread::hardware_concurrency())));
  s.set("compiler", PERFBENCH_COMPILER);
  s.set("build_type", PERFBENCH_BUILD_TYPE);
  s.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  s.set("worker_threads", Json(static_cast<double>(info.threads)));
  s.set("workload", info.workload);
  s.set("seed", Json(static_cast<double>(info.seed)));
  s.set("run_seconds", Json(info.seconds));
  s.set("trace", info.trace);
  s.set("git_commit", info.commit);
  return s;
}

std::size_t default_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2);
}

double cpu_now() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void put_metric(Json& metrics, const std::string& name, double value,
                const std::string& unit) {
  Json m = Json::object();
  m.set("value", Json::number(value));
  m.set("unit", unit);
  metrics.set(name, m);
}

}  // namespace perfbench
