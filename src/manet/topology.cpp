#include "manet/topology.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace midas::manet {

namespace {

/// Half-width of the relative band around r² inside which a pair takes
/// the exact distance_to test (see topology.h).
constexpr double kBand = 1e-9;

/// Frontier BFS from `src` over the bit rows `adj`: calls visit(v, depth)
/// once for every node v ≠ src that `src` reaches, depth ≥ 1 being its
/// hop distance.  `scratch` holds 3·words words.
template <class Visit>
void frontier_bfs(const std::vector<std::uint64_t>& adj, std::size_t words,
                  std::size_t src, std::vector<std::uint64_t>& scratch,
                  Visit&& visit) {
  std::uint64_t* seen = scratch.data();
  std::uint64_t* frontier = seen + words;
  std::uint64_t* next = frontier + words;
  const std::uint64_t* row = adj.data() + src * words;
  std::uint64_t any = 0;
  for (std::size_t k = 0; k < words; ++k) {
    seen[k] = frontier[k] = row[k];
    any |= row[k];
  }
  seen[src / 64] |= std::uint64_t{1} << (src % 64);
  for (std::uint32_t depth = 1; any != 0; ++depth) {
    std::fill_n(next, words, 0);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = frontier[w]; bits != 0; bits &= bits - 1) {
        const std::size_t u =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        visit(u, depth);
        const std::uint64_t* nb = adj.data() + u * words;
        for (std::size_t k = 0; k < words; ++k) next[k] |= nb[k];
      }
    }
    any = 0;
    for (std::size_t k = 0; k < words; ++k) {
      next[k] &= ~seen[k];
      seen[k] |= next[k];
      any |= next[k];
    }
    std::swap(frontier, next);
  }
}

}  // namespace

ConnectivityGraph::ConnectivityGraph(std::span<const Vec2> positions,
                                     double range_m)
    : words_((positions.size() + 63) / 64),
      adj_(positions.size() * words_, 0),
      component_(positions.size(), UINT32_MAX) {
  const std::size_t n = positions.size();
  // d² < lo: linked; d² > hi: not; otherwise distance_to decides.  The
  // defaults send every pair to distance_to (d² is never below -1 or
  // above +inf).
  double lo = -1.0;
  double hi = std::numeric_limits<double>::infinity();
  const double r2 = range_m * range_m;
  if (range_m > 0.0 && std::isnormal(r2)) {
    lo = r2 * (1.0 - kBand);
    hi = r2 * (1.0 + kBand);
  }
  // O(n²) pair scan; N ≤ a few hundred in every experiment, so a spatial
  // index would be overkill.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const Vec2 d = positions[i] - positions[j];
      const double d2 = d.x * d.x + d.y * d.y;
      bool linked = d2 < lo;
      if (!linked && !(d2 > hi)) {
        linked = positions[i].distance_to(positions[j]) <= range_m;
      }
      if (linked) {
        adj_[i * words_ + j / 64] |= std::uint64_t{1} << (j % 64);
        adj_[j * words_ + i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
  }

  std::vector<std::uint64_t> scratch(3 * words_);
  for (std::size_t start = 0; start < n; ++start) {
    if (component_[start] != UINT32_MAX) continue;
    const auto label = static_cast<std::uint32_t>(num_components_++);
    component_[start] = label;
    frontier_bfs(adj_, words_, start, scratch,
                 [&](std::size_t v, std::uint32_t) { component_[v] = label; });
  }
}

std::vector<std::size_t> ConnectivityGraph::component_sizes() const {
  std::vector<std::size_t> sizes(num_components_, 0);
  for (auto c : component_) ++sizes[c];
  return sizes;
}

std::vector<std::uint32_t> ConnectivityGraph::hop_distances(
    std::uint32_t src) const {
  std::vector<std::uint32_t> dist(size(), UINT32_MAX);
  dist[src] = 0;
  std::vector<std::uint64_t> scratch(3 * words_);
  frontier_bfs(adj_, words_, src, scratch,
               [&](std::size_t v, std::uint32_t depth) { dist[v] = depth; });
  return dist;
}

TopologyStats ConnectivityGraph::stats() const {
  TopologyStats st;
  const std::size_t n = size();
  st.num_components = num_components_;
  for (auto s : component_sizes()) {
    st.largest_component = std::max(st.largest_component, s);
  }

  std::size_t degree_sum = 0;
  for (auto w : adj_) degree_sum += static_cast<std::size_t>(std::popcount(w));
  st.mean_degree = n > 0 ? static_cast<double>(degree_sum) /
                               static_cast<double>(n)
                         : 0.0;

  // Hop statistics: one BFS per source, summing integer hop counts.
  std::size_t reachable_pairs = 0;
  std::size_t hop_sum = 0;
  std::vector<std::uint64_t> scratch(3 * words_);
  for (std::size_t s = 0; s < n; ++s) {
    frontier_bfs(adj_, words_, s, scratch,
                 [&](std::size_t, std::uint32_t depth) {
                   ++reachable_pairs;
                   hop_sum += depth;
                 });
  }
  if (reachable_pairs > 0) {
    st.mean_hops = static_cast<double>(hop_sum) /
                   static_cast<double>(reachable_pairs);
  }
  const std::size_t total_pairs = n * (n - 1);
  st.connectivity = total_pairs > 0 ? static_cast<double>(reachable_pairs) /
                                          static_cast<double>(total_pairs)
                                    : 0.0;
  return st;
}

}  // namespace midas::manet
