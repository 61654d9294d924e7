// perfbench_selftest <spec-dir> — the benchmark's own test:
//   * the same seed gives the same request bytes; another seed gives
//     other base seeds and (analytic_sweep) other TIDS draws;
//   * every base seed is JSON-exact (< 2^53) and every generated spec
//     passes the service's validation;
//   * a real des_fig2val answer passes the checks, and the same answer
//     with one MTTSF doubled fails them.
#include <exception>
#include <iostream>
#include <string>

#include "checks.h"
#include "workload.h"

namespace {

using midas::util::Json;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
  failures += ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_selftest <spec-dir>\n";
    return 2;
  }
  const std::string spec_dir = argv[1];
  try {
    for (const auto& workload : perfbench::workload_names()) {
      const auto ready = perfbench::set_up(spec_dir, workload, 1);
      const perfbench::RequestGenerator a(workload, 7, ready.spec_json);
      const perfbench::RequestGenerator again(workload, 7, ready.spec_json);
      const perfbench::RequestGenerator b(workload, 8, ready.spec_json);
      bool same = true, seeds_differ = true, exact = true, valid = true;
      for (std::size_t i = 0; i < 4; ++i) {
        same = same && a.request(i) == again.request(i);
        seeds_differ = seeds_differ && a.base_seed(i) != b.base_seed(i) &&
                       (i == 0 || a.base_seed(i) != a.base_seed(i - 1));
        exact = exact && a.base_seed(i) < (std::uint64_t{1} << 53);
        try {
          const auto spec =
              midas::core::ExperimentSpec::from_json(Json::parse(a.request(i)));
          spec.validate();
          valid = valid && spec.mc.base_seed == a.base_seed(i);
        } catch (const std::exception& e) {
          std::cout << "     " << e.what() << '\n';
          valid = false;
        }
      }
      expect(same, workload + ": same seed gives the same bytes");
      expect(seeds_differ,
             workload + ": base seeds differ across seeds and requests");
      expect(exact, workload + ": base seeds below 2^53");
      expect(valid, workload + ": generated specs validate");
      if (workload == "analytic_sweep") {
        const auto ta = a.t_ids(0), tb = b.t_ids(0);
        bool in_range = ta.size() == 40;
        for (const double t : ta) {
          in_range = in_range && t >= 5.0 && t <= 1200.0;
        }
        expect(in_range, workload + ": 40 TIDS draws in [5, 1200] s");
        expect(ta != tb, workload + ": TIDS draws differ across seeds");
        expect(ta != a.t_ids(1),
               workload + ": TIDS draws differ across requests");
      }
    }

    // A real answer passes; the same answer with one MTTSF doubled fails.
    auto ready = perfbench::set_up(spec_dir, "des_fig2val", 2);
    const perfbench::RequestGenerator gen("des_fig2val", 7, ready.spec_json);
    const auto spec =
        midas::core::ExperimentSpec::from_json(Json::parse(gen.request(0)));
    auto result = ready.service->run(spec);
    const auto clean =
        perfbench::check_answer(spec, result, result.to_json().dump());
    for (const auto& f : clean) std::cout << "     " << f << '\n';
    expect(clean.empty(), "des_fig2val: genuine answer passes the checks");

    for (auto& run : result.backends) {
      if (run.kind == midas::core::BackendKind::Analytic) {
        run.evals[5].mttsf *= 2.0;
      }
    }
    const auto tampered =
        perfbench::check_answer(spec, result, result.to_json().dump());
    for (const auto& f : tampered) std::cout << "     " << f << '\n';
    expect(tampered.size() == 1 &&
               tampered[0].find("des point 5") != std::string::npos,
           "des_fig2val: answer with one MTTSF doubled fails at that point");

    const std::string text = result.to_json().dump();
    const auto truncated = perfbench::check_answer(
        spec, result, text.substr(0, text.size() - 2) + "\n");
    expect(!truncated.empty(),
           "des_fig2val: result text that does not re-parse fails");
  } catch (const std::exception& e) {
    std::cout << "FAIL exception: " << e.what() << '\n';
    return 1;
  }
  std::cout << (failures == 0 ? "all checks passed" : "checks failed") << '\n';
  return failures == 0 ? 0 : 1;
}
