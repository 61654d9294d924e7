// The group DES with every rate recomputed on each event: the voting
// lookup, both shape factors, the detector's effective rates and a full
// CostModel::breakdown per Gillespie step, over a timeline and voting
// tables resolved per simulator.
// Test oracle only: sim::GroupSimulator reads the same rates from
// sim::DesContext's per-segment tables and must match it bit for bit —
// status, event count and every Trajectory field — on the same stream.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.h"
#include "gcs/cost_model.h"
#include "ids/voting.h"
#include "sim/des.h"
#include "sim/rng.h"

namespace midas::sim::oracle {

class GroupSimulator {
 public:
  using Status = sim::GroupSimulator::Status;

  /// Voting tables come from ids::shared_voting_table, as
  /// sim::DesContext's do.  Throws on invalid params.
  explicit GroupSimulator(const core::Params& params);

  /// One Gillespie iteration (one event, or one boundary hop).
  Status step(RandomSource& draw);

  [[nodiscard]] Status status() const noexcept { return status_; }
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] const Trajectory& trajectory() const noexcept {
    return traj_;
  }

 private:
  struct State {
    std::int64_t tm = 0;
    std::int64_t ucm = 0;
    std::int64_t ng = 1;
    [[nodiscard]] std::int64_t members() const { return tm + ucm; }
  };

  [[nodiscard]] bool c2_failed() const;

  const core::Params* params_;
  gcs::CostModel cost_;
  bool timed_ = false;
  bool static_detector_ = true;
  std::shared_ptr<const ids::VotingTable> base_voting_;
  std::vector<core::TimelineSegment> timeline_;
  std::vector<std::shared_ptr<const ids::VotingTable>> segment_voting_;
  std::size_t seg_idx_ = 0;
  const core::Params* cur_;
  const ids::VotingTable* voting_;
  double next_boundary_ = 0.0;

  State s_;
  Trajectory traj_;
  double now_ = 0.0;
  bool atk_on_ = true;
  Status status_ = Status::Running;
};

}  // namespace midas::sim::oracle
