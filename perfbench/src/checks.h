// Answer checks behind ok_frac.  A request passes when:
//   * every requested backend answered every point of the grid;
//   * every MTTSF and Ĉtotal (analytic and simulated) is finite and > 0;
//   * protocol-sim keys always agreed and no trajectory timed out;
//   * the result JSON re-parses to the same bytes;
//   * each DES TTSF mean lies within kDesBand 95% half-widths of the
//     analytic MTTSF — a multiple, not the plain interval: the plain 95%
//     CI misses by design on ~1 point in 20, and a 12-point grid then
//     fails a request every few seeds;
//   * each protocol-sim TTSF mean is within kProtocolFactor× of the
//     analytic MTTSF (the trend-level bar val_protocol_sim uses: the
//     packet-level simulator runs the concrete protocol, not the SPN's
//     exponential abstraction).
#pragma once

#include <string>
#include <vector>

#include "core/experiment.h"

namespace perfbench {

inline constexpr double kDesBand = 3.0;
inline constexpr double kProtocolFactor = 10.0;

/// Every failed check, each naming the backend and grid point; empty
/// when the answer passes.
[[nodiscard]] std::vector<std::string> check_answer(
    const midas::core::ExperimentSpec& spec,
    const midas::core::ExperimentResult& result,
    const std::string& result_text);

}  // namespace perfbench
