#include "oracle/topology.h"

#include <algorithm>
#include <deque>

namespace midas::manet::oracle {

ConnectivityGraph::ConnectivityGraph(std::span<const Vec2> positions,
                                     double range_m) {
  const std::size_t n = positions.size();
  adj_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (positions[i].distance_to(positions[j]) <= range_m) {
        adj_[i].push_back(static_cast<std::uint32_t>(j));
        adj_[j].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  label_components();
}

void ConnectivityGraph::label_components() {
  const std::size_t n = adj_.size();
  component_.assign(n, UINT32_MAX);
  std::uint32_t label = 0;
  std::deque<std::uint32_t> queue;
  for (std::size_t start = 0; start < n; ++start) {
    if (component_[start] != UINT32_MAX) continue;
    component_[start] = label;
    queue.push_back(static_cast<std::uint32_t>(start));
    while (!queue.empty()) {
      const auto u = queue.front();
      queue.pop_front();
      for (auto v : adj_[u]) {
        if (component_[v] == UINT32_MAX) {
          component_[v] = label;
          queue.push_back(v);
        }
      }
    }
    ++label;
  }
  num_components_ = label;
}

std::vector<std::size_t> ConnectivityGraph::component_sizes() const {
  std::vector<std::size_t> sizes(num_components_, 0);
  for (auto c : component_) ++sizes[c];
  return sizes;
}

std::vector<std::uint32_t> ConnectivityGraph::hop_distances(
    std::uint32_t src) const {
  std::vector<std::uint32_t> dist(adj_.size(), UINT32_MAX);
  dist[src] = 0;
  std::deque<std::uint32_t> queue{src};
  while (!queue.empty()) {
    const auto u = queue.front();
    queue.pop_front();
    for (auto v : adj_[u]) {
      if (dist[v] == UINT32_MAX) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

TopologyStats ConnectivityGraph::stats() const {
  TopologyStats st;
  const std::size_t n = adj_.size();
  st.num_components = num_components_;
  const auto sizes = component_sizes();
  for (auto s : sizes) st.largest_component = std::max(st.largest_component, s);

  std::size_t degree_sum = 0;
  for (const auto& nb : adj_) degree_sum += nb.size();
  st.mean_degree = n > 0 ? static_cast<double>(degree_sum) /
                               static_cast<double>(n)
                         : 0.0;

  std::size_t reachable_pairs = 0;
  std::size_t hop_sum = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const auto dist = hop_distances(static_cast<std::uint32_t>(s));
    for (std::size_t v = 0; v < n; ++v) {
      if (v == s || dist[v] == UINT32_MAX) continue;
      ++reachable_pairs;
      hop_sum += dist[v];
    }
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

}  // namespace midas::manet::oracle
