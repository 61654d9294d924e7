// The SPN engine as a general dependability tool — independent of the
// paper's model.  Builds a classic mission model (two redundant power
// supplies, no repair: the system dies when both units have failed) and
// computes its mean time to failure with the absorbing-state analyzer —
// the standard question any SPN user asks of a non-repairable system.
#include <cstdio>

#include "spn/absorbing.h"
#include "spn/reachability.h"

int main() {
  using namespace midas::spn;

  const double fail_rate = 1.0 / 1000.0;  // per-unit failures

  PetriNet net;
  const auto up = net.add_place("Up", 2);
  net.transition("fail")
      .input(up)
      .rate([up, fail_rate](const Marking& m) { return fail_rate * m[up]; })
      .add();

  const auto graph = explore(net);
  const AbsorbingAnalyzer analyzer(graph);
  const auto res = analyzer.solve();
  // Closed form: 1/(2λ) + 1/λ = 1500 — printed for comparison.
  std::printf("mission model (no repair):\n");
  std::printf("  MTTF = %.1f h (closed form: %.1f h)\n", res.mtta,
              1.0 / (2 * fail_rate) + 1.0 / fail_rate);
  return 0;
}
