#include "oracle/ctmc.h"

#include <algorithm>

namespace midas::spn {

Ctmc Ctmc::from_graph(const ReachabilityGraph& graph) {
  Ctmc c;
  c.n_ = graph.num_states();
  c.initial_ = graph.initial;
  c.exit_.assign(c.n_, 0.0);
  c.absorbing_ = graph.absorbing_mask();

  std::vector<linalg::Triplet> trips;
  trips.reserve(graph.edges.size() * 2);
  for (const auto& e : graph.edges) {
    if (e.src == e.dst) continue;  // self-loops cancel in the generator
    trips.push_back({e.src, e.dst, e.rate});
    trips.push_back({e.src, e.src, -e.rate});
    c.exit_[e.src] += e.rate;
  }
  c.q_ = linalg::CsrMatrix::from_triplets(c.n_, c.n_, std::move(trips));
  return c;
}

std::size_t Ctmc::num_absorbing() const {
  return static_cast<std::size_t>(
      std::count(absorbing_.begin(), absorbing_.end(), char{1}));
}

double Ctmc::max_exit_rate() const {
  double best = 0.0;
  for (double e : exit_) best = std::max(best, e);
  return best;
}

}  // namespace midas::spn
