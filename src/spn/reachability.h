// Reachability-graph generation: breadth-first exploration of the
// tangible marking space, producing the state list and the rate-labelled
// edge list from which the CTMC generator is assembled.
//
// Edges are stored grouped by source state (CSR order: the BFS emits
// states in increasing id order, so each state's out-edges occupy one
// contiguous range of `edges`, delimited by `edge_offsets`).  Consumers
// that walk per-state adjacency — absorbing analysis, SCC condensation,
// reward accumulation — use `out_edges()` instead of re-scanning the
// flat list.
//
// Each edge also records how its effective rate/impulse decompose into
// the timed transition's contribution and the vanishing-path factors
// (`prob`, `vanishing_impulse`).  A parameter sweep that changes only
// rate values — not the enabled structure — can therefore reuse the
// explored graph and re-rate it per batch of sweep points with
// `compute_rates_batch()` instead of re-exploring (see
// core::SweepEngine).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "spn/marking.h"
#include "spn/petri_net.h"

namespace midas::spn {

using StateId = std::uint32_t;

/// Optional fast path for compute_rates_batch: fills `rates[p]` and
/// `impulses[p]` with nets[p]'s rate/impulse of `t` fired from `m`, for
/// every batch point p in one call — letting the caller hoist the
/// marking-derived quantities (group sizes, memo-table indices) that a
/// per-net spn-level evaluation would recompute P times.  Returns false
/// to decline the pair, in which case compute_rates_batch falls back to
/// the generic per-net rate()/impulse() calls.  CONTRACT: the values
/// written must be bitwise what nets[p]->rate(t, m) / ->impulse(t, m)
/// return (the hook is a scheduling optimisation, not a re-definition).
using BatchRateFn = std::function<bool(
    TransitionId t, const Marking& m, std::span<double> rates,
    std::span<double> impulses)>;

struct Edge {
  StateId src;
  StateId dst;              // may equal src (self-loop; cost-only firing)
  double rate;              // > 0; = net.rate(transition, src) · prob
  TransitionId transition;
  double impulse;           // = net.impulse(transition, src) + vanishing_impulse
  double prob;              // path probability through vanishing markings (1 = direct)
  double vanishing_impulse; // impulse collected on immediate firings en route
};

struct ReachabilityGraph {
  std::vector<Marking> states;
  std::vector<Edge> edges;  // grouped by src in ascending order
  /// CSR ranges: out-edges of state s are edges[edge_offsets[s] ..
  /// edge_offsets[s+1]).  Size num_states()+1.
  std::vector<std::uint32_t> edge_offsets;
  StateId initial = 0;

  [[nodiscard]] std::span<const Edge> out_edges(StateId s) const {
    return {edges.data() + edge_offsets[s],
            edges.data() + edge_offsets[s + 1]};
  }

  /// True when the state has no edge leading to a *different* state.
  /// (A state with only self-loops never advances; the explorer rejects
  /// such states because mean time to absorption would diverge.)
  [[nodiscard]] std::vector<char> absorbing_mask() const;

  /// Evaluates per-edge rates and impulses for P nets that share this
  /// graph's structure, without mutating the graph: ONE pass over the
  /// structure fills point-major [edge][point] rate/impulse matrices —
  /// rates[i*P + p] is edge i's rate under nets[p].  Each net must have
  /// the same reachable set and enabled structure as the net this graph
  /// was explored from, i.e. the parameter change scales timed
  /// rates/impulses without zeroing any or enabling new firings, and
  /// leaves immediate weights untouched.  One (transition, marking)
  /// evaluation serves every vanishing-expansion edge of a firing, and
  /// nets[p]'s values are bitwise what exploring nets[p] stores on its
  /// edges.  Spans must hold edges.size()·P doubles.  Throws
  /// std::runtime_error naming the edge, transition, marking and batch
  /// point when a stored edge re-rates to a non-positive value
  /// (structure mismatch).
  ///
  /// `fast` (optional) answers whole (transition, marking) pairs across
  /// all P points at once (see BatchRateFn); pairs it declines — and
  /// everything, when it is empty — take the generic per-net path.
  void compute_rates_batch(std::span<const PetriNet* const> nets,
                           std::span<double> rates,
                           std::span<double> impulses,
                           const BatchRateFn& fast = {}) const;

  [[nodiscard]] std::size_t num_states() const { return states.size(); }
};

struct ExploreOptions {
  std::size_t max_states = 2'000'000;
};

/// Explores the reachable markings of `net` from its initial marking.
/// Throws std::runtime_error if `max_states` is exceeded or if a state
/// with only self-loop firings is found (diverging MTTA).
[[nodiscard]] ReachabilityGraph explore(const PetriNet& net,
                                        const ExploreOptions& opts = {});

}  // namespace midas::spn
