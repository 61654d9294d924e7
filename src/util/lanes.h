// Lane-count dispatch for the point-major analytic kernels
// (spn::TransientStructure, core::StructurePlan and
// AbsorbingAnalyzer's lane loops), which walk `lanes` contiguous
// doubles per row.
#pragma once

#include <cstddef>
#include <type_traits>

namespace midas::util {

/// Runs body(P) with P a compile-time constant for the common lane
/// counts — one lane (the scalar solves and every θ-step) and
/// core::kDefaultBatchWidth's 8 — and with the runtime count otherwise.
/// Bodies are marked always_inline, so each count gets its own fused
/// loops with the captures in registers.
template <class Body>
[[gnu::always_inline]] inline void with_lanes(std::size_t lanes,
                                              Body&& body) {
  if (lanes == 1) {
    body(std::integral_constant<std::size_t, 1>{});
  } else if (lanes == 8) {
    body(std::integral_constant<std::size_t, 8>{});
  } else {
    body(lanes);
  }
}

}  // namespace midas::util
