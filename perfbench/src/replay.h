// The traced run: one invocation with the same workload and seed as an
// untraced run.  It sets up cold (timing each set-up step), answers the
// workload's first traced_requests() requests through the service
// untraced, then replays the same requests layer by layer through the
// public functions each backend calls:
//
//   core     ExperimentSpec::from_json / validate / grid,
//            ExperimentResult::to_json
//   ids      ids::shared_voting_table (set-up)
//   spn      spn::explore, spn::AbsorbingAnalyzer
//   sweep    ReachabilityGraph::compute_rates_batch,
//            AbsorbingAnalyzer::solve_batch, core::evaluate_with_batch
//   mission  core::MissionAnalyzer
//   mc/des   MonteCarloEngine::run_des (with a draw-counting stream
//            factory), GroupSimulator::step
//   protocol MonteCarloEngine::run_protocol, run_protocol_sim
//   manet    manet::ConnectivityGraph
//
// recording a span around each call.  The replayed answers must equal
// the service's canonical bytes; if they do not, the replay measured a
// different program and the run is reported incorrect.
#pragma once

#include <string>
#include <vector>

#include "stamp.h"
#include "util/json.h"

namespace perfbench {

struct TracedRun {
  midas::util::Json metrics = midas::util::Json::object();
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
};

/// Runs the traced mode and writes the Chrome trace-event file to
/// `trace_path`.
[[nodiscard]] TracedRun run_traced(const std::string& spec_dir,
                                   const RunInfo& info,
                                   const std::string& trace_path);

}  // namespace perfbench
