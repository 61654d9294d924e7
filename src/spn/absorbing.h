// Absorbing-state analysis: mean time to absorption (the paper's MTTSF),
// expected accumulated rate/impulse rewards until absorption (the
// paper's Ĉtotal numerator), and per-absorbing-state absorption
// probabilities (used to split failures into C1 vs C2).
//
// Method: let T be the transient states, Q_TT the generator restricted
// to T and π₀ the initial distribution.  The expected total sojourn
// vector τ solves   Q_TTᵀ τ = −π₀|_T.   Then
//   MTTA              = Σ_i τ_i
//   accumulated reward = Σ_i τ_i · r(state_i)  +  Σ_e τ_src(e) · rate_e · imp_e
//   P[absorb in a]     = Σ_i τ_i · q_{i,a}
//
// The analyzer splits the work into structure and numbers: the absorbing
// mask, the transient compaction and the SCC condensation
// (TransientStructure) are computed once at construction from the
// graph's CSR adjacency, and each solve only runs the numeric part.
// A parameter sweep therefore constructs one analyzer per explored
// structure and solves its points P at a time with solve_batch (see
// core::SweepEngine); solve()/solve_from() run the same body with one
// lane for the reference paths, the mission chain's tail and generic
// nets.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "spn/reachability.h"
#include "spn/scc.h"
#include "util/arena.h"

namespace midas::spn {

/// The transient part of a reachability graph, compacted once for every
/// linear solve on it.  Every solver on the transient chain runs the
/// same system,
///
///     (shift + exit_j)·x_j − Σ_{i→j} r_ij·x_i = b_j     (j transient),
///
/// through substitute(): AbsorbingAnalyzer's sojourn balance is shift 0,
/// and a θ-step of ReliabilityOde is shift 1/(θh).  Nothing here checks
/// absorption — a θ-step is well posed on any chain, including one with
/// no absorbing state; AbsorbingAnalyzer adds the checks its mean time
/// to absorption needs.
///
/// The kernels run `lanes` independent systems over point-major spans
/// (entry [i·lanes + p] is row i in lane p), so inner loops walk `lanes`
/// contiguous doubles.  A lane's arithmetic does not depend on the other
/// lanes, and one lane runs as a compile-time 1: straight scalar loops.
struct TransientStructure {
  explicit TransientStructure(const ReachabilityGraph& graph);

  /// An incoming transient→transient edge: compact source index plus the
  /// global edge index (for per-point rate lookup).
  struct InEdge {
    std::uint32_t src;
    std::uint32_t edge;
  };

  /// An outgoing transient→absorbing edge: global edge index plus the
  /// (full-index) absorbing destination.
  struct AbsEdge {
    std::uint32_t edge;
    std::uint32_t dst;
  };

  /// substitute()'s working storage for `lanes` lanes, sized to the
  /// largest SCC, plus counts of the dense-block factorisations.
  struct Scratch {
    std::size_t lanes = 0;
    std::span<double> lu;           ///< one dense block per lane
    std::span<double> rhs;          ///< its right-hand sides
    std::span<std::uint32_t> ipiv;  ///< its pivot rows
    std::span<double> pivot_lanes;  ///< lu_solve_point_major's 3·lanes
    /// Factor reuse (empty when off, for one lane or without dense
    /// blocks): lane scales and group heads, one group's members.
    std::span<double> scale;
    std::span<std::uint32_t> head;
    std::span<std::uint32_t> member;
    std::span<double> shared_lu;
    std::span<double> shared_rhs;
    std::size_t blocks_factored = 0;  ///< dense LU factorisations performed
    std::size_t blocks_reused = 0;    ///< lane-solves served by a shared LU
  };

  [[nodiscard]] std::size_t size() const noexcept { return expand.size(); }

  /// Total exit rate of each transient state under `edge_rates`
  /// (self-loops cancel in Q), summed in graph CSR order into `out`
  /// ([state][lane]).
  void exit_rates(std::span<const double> edge_rates, std::span<double> out,
                  std::size_t lanes) const;

  /// Scratch for `lanes` lanes from `arena` (valid until its reset()).
  /// Throws when an SCC exceeds the dense-block limit.
  [[nodiscard]] Scratch make_scratch(std::size_t lanes, util::Arena& arena,
                                     bool factor_reuse = false) const;

  /// Solves the system above exactly, in place, in every lane of
  /// `scratch`: `x` ([state][lane]) holds b on entry and the solution
  /// on return.  Components are taken in topological order, so every
  /// cross-component inflow is already solved; a singleton is one
  /// division, a larger block one dense LU per lane, or one per group of
  /// lanes under factor reuse (BatchSolveOptions).  With shift 0 the
  /// arithmetic is the sojourn balance's, bit for bit.
  void substitute(std::span<const double> edge_rates,
                  std::span<const double> exit_rate, double shift,
                  std::span<double> x, Scratch& scratch) const;

  /// absorbed[a] += Σ_i x_i·r(i→a) per lane, for compact `x` and
  /// full-state `absorbed`: the absorption probabilities of a sojourn τ,
  /// or the mass a θ-phase absorbed from its occupancy ∫w dt.
  void absorption_flow(std::span<const double> edge_rates,
                       std::span<const double> x, std::span<double> absorbed,
                       std::size_t lanes) const;

  /// Full → compact index (UINT32_MAX at absorbing states).
  std::vector<std::uint32_t> compact;
  std::vector<std::uint32_t> expand;  ///< compact → full
  /// The initial state's compact index; UINT32_MAX when it is absorbing.
  std::uint32_t init_compact = UINT32_MAX;
  /// Incoming transient→transient edges, CSR by destination.
  std::vector<std::uint32_t> in_offsets;
  std::vector<InEdge> in_edges;
  /// The same CSR restricted to edges from other SCC components:
  /// substitute()'s external inflow, scanned without a component test.
  std::vector<std::uint32_t> ext_offsets;
  std::vector<InEdge> ext_edges;
  /// Per transient state, the global indices of its non-self-loop
  /// out-edges (graph CSR order): the `e.src != e.dst` test runs once
  /// here instead of per solve.
  std::vector<std::uint32_t> exit_offsets;
  std::vector<std::uint32_t> exit_edges;
  /// Absorption flows, likewise compacted: transient→absorbing edges.
  std::vector<std::uint32_t> abs_offsets;
  std::vector<AbsEdge> abs_edges;
  /// Condensation of the transient subgraph.
  SccResult scc;
  std::vector<std::vector<std::uint32_t>> components;
  /// Per component, its in-block edges as (entry r·k + c of its k×k
  /// block, edge), by row then in-CSR order: the coefficients −r_ij.
  struct BlockTerm {
    std::uint32_t entry;
    std::uint32_t edge;
  };
  std::vector<std::uint32_t> term_offsets;
  std::vector<BlockTerm> terms;
  std::size_t max_block = 0;  ///< largest SCC (dense-block scratch sizing)
};

struct AbsorbingResult {
  double mtta = 0.0;
  /// Expected total time spent in each state before absorption (full
  /// state indexing; identically 0 for absorbing states).
  std::vector<double> sojourn;
  /// Probability of being absorbed in each state (0 for transient).
  std::vector<double> absorb_probability;
  /// SCC condensation blocks solved.
  std::size_t solver_blocks = 0;
};

/// Knobs of the batched multi-point solve.
struct BatchSolveOptions {
  /// Deduplicate dense SCC blocks across points: every block is
  /// normalised by the power of two bracketing its first diagonal
  /// entry, and points whose normalised blocks are BITWISE identical
  /// (identical blocks, or exact power-of-two multiples, as in
  /// rate-scaled sweeps) share one LU factorisation via solve_many.
  /// The match is intrinsic to each point's block, so results never
  /// depend on batch or shard grouping, and the scaling is exact, so
  /// the shared-factor solves are bitwise the per-point ones (the gate
  /// is <= 1e-12 relative; in practice reuse changes no bit).
  bool factor_reuse = true;
};

/// Point-major answers of solve_batch: entry [s*num_points + p] is
/// state s's value for batch point p.  The spans live in the arena the
/// caller passed (or the calling thread's scratch arena) and stay valid
/// until that arena is reset.
struct AbsorbingBatchResult {
  std::size_t num_points = 0;
  std::span<double> mtta;     ///< [P]
  std::span<double> sojourn;  ///< [n][P]; absorbing rows identically 0
  std::span<double> absorb_probability;  ///< [n][P]; transient rows 0
  std::size_t solver_blocks = 0;    ///< per point (structure-shared)
  std::size_t blocks_factored = 0;  ///< LU factorisations performed
  std::size_t blocks_reused = 0;    ///< point-solves served by a shared LU
};

/// Throws std::invalid_argument naming `name` when `mass` is not
/// full-state sized, or naming `name`[s] and its marking when an entry is
/// not finite, is nonzero at an absorbing state, or is negative beyond
/// rounding (below −1e-12·Σ|mass|).
void check_transient_mass(std::span<const double> mass,
                          const ReachabilityGraph& graph,
                          const std::string& name);

class AbsorbingAnalyzer {
 public:
  /// The graph must contain at least one absorbing state, reachable
  /// from the initial state, and no transient region reachable from the
  /// initial state may be unable to reach absorption (MTTA would
  /// diverge).  All three are checked here, with descriptive errors.
  explicit AbsorbingAnalyzer(const ReachabilityGraph& graph);

  /// Solves from the graph's initial state with the rates stored on the
  /// graph's edges (snapshotted at construction).
  [[nodiscard]] AbsorbingResult solve() const;

  /// Solves with per-edge rates overriding the stored ones:
  /// `edge_rates[i]` replaces `graph.edges[i].rate` and must be positive
  /// wherever the stored rate is.  Reuses the construction-time
  /// structure, so a sweep point costs only the numeric solve.
  /// Thread-safe: const, no shared mutable state.
  [[nodiscard]] AbsorbingResult solve(
      std::span<const double> edge_rates) const;

  /// Solves from an arbitrary initial distribution instead of the
  /// graph's initial state: `initial_mass` is full-state indexed and
  /// its entries at absorbing states must be zero (mass that has
  /// already been absorbed has left the problem — mission chaining
  /// hands in spn::ReliabilityOde::propagate weights, which satisfy
  /// this by construction).  The mass need not sum to 1: mtta, rewards
  /// and absorb probabilities scale linearly, so a sub-stochastic tail
  /// distribution yields the correctly weighted partial expectations.
  /// check_transient_mass vets it first.  An empty span means the
  /// graph's initial state and is bitwise the plain solve(edge_rates).
  [[nodiscard]] AbsorbingResult solve_from(
      std::span<const double> initial_mass,
      std::span<const double> edge_rates) const;

  /// Batched multi-point solve: `edge_rates` is the point-major
  /// [edge][point] matrix ReachabilityGraph::compute_rates_batch fills
  /// (edge_rates[i*num_points + p] = edge i's rate at point p; size
  /// edges·num_points).  Each point is one lane of the TransientStructure
  /// kernels, with unit mass at the initial state: one pass over the
  /// structure serves all points — or, with opts.factor_reuse, one
  /// factorisation is shared across points whose normalised blocks
  /// coincide (see BatchSolveOptions).  All scratch and the result spans
  /// come from `arena` (the calling thread's scratch arena when null);
  /// the caller resets the arena between batches.
  ///
  /// Numerics gate: with factor_reuse OFF, point p's mtta/sojourn/
  /// absorb_probability are BITWISE the scalar solve(edge_rates_p)
  /// answers (solve_from is this body with one lane); with reuse ON they
  /// agree to <= 1e-12 relative and are independent of how points are
  /// grouped into batches.
  [[nodiscard]] AbsorbingBatchResult solve_batch(
      std::span<const double> edge_rates, std::size_t num_points,
      const BatchSolveOptions& opts = {},
      util::Arena* arena = nullptr) const;

  /// Expected accumulated rate reward  Σ τ_i · reward(state_i).
  [[nodiscard]] double accumulated_rate_reward(
      const AbsorbingResult& res,
      const std::function<double(const Marking&)>& reward) const;

  /// Expected accumulated impulse reward  Σ_e τ_src · rate_e · imp_e,
  /// with the rates/impulses stored on the graph edges: pairs with
  /// solve().  (Re-rated points are rewarded by core::
  /// accumulate_rewards, which takes the rates the solve used.)
  [[nodiscard]] double accumulated_impulse_reward(
      const AbsorbingResult& res) const;

  /// Probability-weighted classification of absorption causes:
  /// sums absorb probabilities over states where `pred` holds.
  [[nodiscard]] double absorption_probability_where(
      const AbsorbingResult& res,
      const std::function<bool(const Marking&)>& pred) const;

  [[nodiscard]] const ReachabilityGraph& graph() const noexcept {
    return graph_;
  }

 private:
  /// solve_batch's and solve_from's one body: the sojourn balance in
  /// res.num_points lanes from `initial_mass` ([state][lane], full-state;
  /// empty = unit mass at the initial state), into res's zeroed spans,
  /// with scratch from `arena`.
  void solve_lanes(std::span<const double> initial_mass,
                   std::span<const double> edge_rates, bool factor_reuse,
                   util::Arena& arena, AbsorbingBatchResult& res) const;

  const ReachabilityGraph& graph_;
  const TransientStructure t_;
  // Rates stored on the graph edges at construction (no-arg solve()).
  std::vector<double> stored_rates_;
};

}  // namespace midas::spn
