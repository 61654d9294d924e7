// perfbench_e2e — end-to-end benchmark of core::ExperimentService.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --spec-dir perfbench/specs --out-dir <dir> [--commit <sha>]
//
// Untraced (--trace 0): measures set-up, then drives one long-lived
// service with a single closed-loop client for --seconds: the next spec
// JSON request is sent only when the previous answer is back.  Every
// answer is checked (checks.h).  Prints a stamp line, then one JSON
// line with wall_s and cpu_s (per request, averaged over the timed
// phase after the first request), setup_s (median of several cold
// set-ups), peak_rss_mb and ok_frac.  The stamp line also lists every
// request's and every set-up's sample.
//
// Traced (--trace 1): the layer-by-layer replay of replay.h; prints the
// per-layer metrics and writes a Chrome trace-event file to --out-dir.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <exception>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "checks.h"
#include "replay.h"
#include "stamp.h"
#include "util/cli.h"
#include "util/stopwatch.h"
#include "workload.h"

namespace {

using midas::util::Json;
using midas::util::Stopwatch;
using perfbench::RunInfo;

/// Cold set-up samples per run besides the real set-up: one after each
/// request of the timed phase, so they see the machine over the whole
/// run, and the rest after it.  A fixed count, so a 0.2 s set-up gets as
/// many samples as a 3 ms one.
constexpr std::size_t kColdSetups = 16;

/// One cold set-up in a fresh process of this binary, started with this
/// process's own flags plus --setup-only 1: nothing is cached there, and
/// each sample gets its own address-space layout, so layout luck
/// averages out over the samples.
double cold_setup_in_child(std::vector<std::string> args) {
  args.insert(args.end(), {"--setup-only", "1"});
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, args.front().c_str(), &actions,
                                  nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  char buf[64];
  ssize_t got = 0;
  while (spawned == 0 && (got = read(fds[0], buf, sizeof buf)) > 0) {
    text.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || text.empty()) {
    throw std::runtime_error("cold set-up failed in a child process");
  }
  return std::stod(text);
}

Json result_line(bool correct, std::size_t attempted, std::size_t failed,
                 Json metrics) {
  Json line = Json::object();
  line.set("correct", correct);
  line.set("attempted", Json(static_cast<double>(attempted)));
  line.set("failed", Json(static_cast<double>(failed)));
  line.set("metrics", std::move(metrics));
  return line;
}

int run_untraced(const std::vector<std::string>& args,
                 const std::string& spec_dir, const RunInfo& info) {
  std::vector<double> setups;
  const Stopwatch setup_watch;
  auto ready = perfbench::set_up(spec_dir, info.workload, info.threads);
  setups.push_back(setup_watch.seconds());

  // Request 0 also grows the allocator's per-thread pools, a one-off a
  // long-lived service pays once: it is answered and checked like every
  // other request, but the per-request times average requests 1..n-1.
  // The phase lasts until the requests have taken --seconds; the cold
  // set-ups between them do not count.
  const perfbench::RequestGenerator gen(info.workload, info.seed,
                                        ready.spec_json);
  std::vector<double> wall, cpu;
  std::size_t failed = 0;
  double busy_s = 0.0;
  for (std::size_t i = 0; i < 2 || busy_s < info.seconds; ++i) {
    const std::string text = gen.request(i);
    const Stopwatch request_watch;
    const double c = perfbench::cpu_now();
    const auto spec =
        midas::core::ExperimentSpec::from_json(Json::parse(text));
    const auto result = ready.service->run(spec);
    const std::string result_text = result.to_json().dump();
    cpu.push_back(perfbench::cpu_now() - c);
    wall.push_back(request_watch.seconds());
    const auto failures = perfbench::check_answer(spec, result, result_text);
    for (const auto& f : failures) {
      std::cerr << "request " << i << ": " << f << '\n';
    }
    failed += failures.empty() ? 0 : 1;
    busy_s += wall.back();
    if (setups.size() <= kColdSetups) {
      setups.push_back(cold_setup_in_child(args));
    }
  }
  while (setups.size() <= kColdSetups) {
    setups.push_back(cold_setup_in_child(args));
  }

  const std::size_t attempted = wall.size();
  const auto timed = static_cast<double>(attempted - 1);
  auto mean_after_first = [&](const std::vector<double>& v) {
    return std::accumulate(v.begin() + 1, v.end(), 0.0) / timed;
  };
  Json metrics = Json::object();
  perfbench::put_metric(metrics, "wall_s", mean_after_first(wall), "s");
  perfbench::put_metric(metrics, "cpu_s", mean_after_first(cpu), "s");
  perfbench::put_metric(metrics, "setup_s", perfbench::median(setups), "s");
  perfbench::put_metric(metrics, "peak_rss_mb", perfbench::peak_rss_mb(),
                        "MB");
  perfbench::put_metric(metrics, "ok_frac",
                        static_cast<double>(attempted - failed) /
                            static_cast<double>(attempted),
                        "ratio");

  Json stamp = perfbench::stamp(info);
  auto samples = [](const std::vector<double>& v) {
    Json a = Json::array();
    for (const double x : v) a.push_back(Json(x));
    return a;
  };
  stamp.set("request_wall_s", samples(wall));
  stamp.set("request_cpu_s", samples(cpu));
  stamp.set("setup_samples_s", samples(setups));
  Json stamp_line = Json::object();
  stamp_line.set("stamp", stamp);
  std::cout << stamp_line.dump_compact() << '\n'
            << result_line(failed == 0, attempted, failed, std::move(metrics))
                   .dump_compact()
            << std::endl;
  return 0;
}

int run_traced(const std::string& spec_dir, const std::string& out_dir,
               const RunInfo& info) {
  std::filesystem::create_directories(out_dir);
  const std::string trace_path = out_dir + "/trace_" + info.workload + "_" +
                                 std::to_string(info.seed) + ".json";
  auto traced = perfbench::run_traced(spec_dir, info, trace_path);
  for (const auto& f : traced.failures) std::cerr << f << '\n';

  Json stamp = perfbench::stamp(info);
  stamp.set("trace_file", trace_path);
  Json stamp_line = Json::object();
  stamp_line.set("stamp", stamp);
  std::cout << stamp_line.dump_compact() << '\n'
            << result_line(traced.failures.empty(), traced.attempted,
                           traced.failed, std::move(traced.metrics))
                   .dump_compact()
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  midas::util::Cli cli("perfbench_e2e",
                       "End-to-end benchmark of the experiment service.");
  cli.flag("workload", std::string(), "workload name (see BENCHMARK.json)")
      .required("workload")
      .flag("seed", std::string(), "workload seed (unsigned 64-bit)")
      .required("seed")
      .flag("seconds", 0.0, "length of the timed phase in seconds")
      .required("seconds")
      .flag("trace", 0, "1 = traced per-layer replay instead of the timing")
      .required("trace")
      .flag("spec-dir", std::string(), "directory of the workload templates")
      .required("spec-dir")
      .flag("out-dir", std::string(), "directory for the trace-event file")
      .required("out-dir")
      .flag("commit", std::string("unknown"), "git commit for the stamp")
      .flag("setup-only", 0, "1 = print one cold set-up time and exit");
  try {
    if (!cli.parse(argc, argv)) return 0;
    RunInfo info;
    info.workload = cli.get_string("workload");
    perfbench::require_workload(info.workload);
    info.seed = std::stoull(cli.get_string("seed"));
    info.seconds = cli.get_double("seconds");
    const int trace = cli.get_int("trace");
    if (trace != 0 && trace != 1) {
      throw std::invalid_argument("--trace takes 0 or 1");
    }
    info.trace = trace == 1;
    info.threads = perfbench::default_threads();
    info.commit = cli.get_string("commit");
    const std::string& spec_dir = cli.get_string("spec-dir");
    if (cli.get_int("setup-only") == 1) {
      // One cold set-up sample for run_untraced's parent process.
      const Stopwatch watch;
      const auto ready = perfbench::set_up(spec_dir, info.workload,
                                           info.threads);
      std::cout.precision(17);
      std::cout << watch.seconds() << std::endl;
      return 0;
    }
    return info.trace
               ? run_traced(spec_dir, cli.get_string("out-dir"), info)
               : run_untraced(std::vector<std::string>(argv, argv + argc),
                              spec_dir, info);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << '\n';
    return 1;
  }
}
