// LeaseTable: the coordinator's pure, clock-injected shard-lease state
// machine.  Every fault-tolerance decision the fleet makes — when a
// worker is dead, when a lease has expired, when a shard has failed
// enough times to be poison, what a late or duplicated completion
// means — is made HERE, on explicit `now` values, with no threads, no
// sockets and no wall clock.  The coordinator event loop feeds it
// events; tests drive the exact same transitions from a table of
// (event, time) pairs.
//
// Shard lifecycle:
//
//   Pending --dispatch--> Leased --complete--> Done
//      ^                    |  \--fail/expire/death--+
//      |                    |                        |
//      +---- backoff gate --+<--- attempts < max ----+
//                           |                        |
//                     (split-on-reassign)      attempts >= max
//                           |                        |
//                           v                        v
//                      Superseded               Quarantined
//
// Semantics worth naming:
//   * Dispatch is at-least-once; correctness comes from determinism.
//     A shard's payload is a pure function of its range, so a late
//     completion of a reassigned shard is either byte-identical to the
//     accepted one (DuplicateVerified — dropped) or evidence of a
//     determinism violation (DuplicateMismatch — the caller must fail
//     the request loudly rather than merge a coin-flip).
//   * First completion wins, whoever computed it.  A straggler whose
//     lease expired can still land its result if nobody beat it.
//   * Per-lease deadlines scale with the shard's pilot-cost weight
//     (clamped), so an expensive shard is not declared late on the
//     schedule of a cheap one.
//   * Re-dispatch waits out a capped exponential backoff with
//     deterministic per-(shard, attempt) jitter, so a flapping worker
//     pool does not synchronise its retries.
//   * On reassignment the orphaned range can be re-split across the
//     idle survivors (ShardPlan::replan) — children inherit the
//     parent's tag, attempt count and proportional weight; the parent
//     becomes Superseded and its late result, if any, is dropped.
//   * After `max_attempts` dispatches a shard is Quarantined: the
//     request completes with that range reported as a named gap
//     instead of retrying forever.
//   * remove_tag keeps each Done shard's payload as a tombstone for
//     `heartbeat_timeout_s` (the longest a live worker stays silent):
//     a re-delivery landing after the answer is still verified, then
//     Unknown once the window closes and tick() prunes the tombstone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/shard.h"

namespace midas::svc {

struct LeaseOptions {
  double heartbeat_timeout_s = 10.0;  ///< silence ⇒ worker is dead
  double lease_deadline_s = 60.0;     ///< base compute budget per lease
  double deadline_weight_cap = 8.0;   ///< max deadline scale from weight
  double backoff_base_s = 0.5;        ///< first re-dispatch delay
  double backoff_cap_s = 30.0;        ///< ceiling for the doubling
  double backoff_jitter = 0.25;       ///< ±fraction, deterministic hash
  std::size_t max_attempts = 4;       ///< dispatches before quarantine
  bool split_on_reassign = true;      ///< replan orphans across idlers
};

enum class ShardState { Pending, Leased, Done, Quarantined, Superseded };

[[nodiscard]] const char* to_string(ShardState state) noexcept;

struct ShardInfo {
  std::uint64_t id = 0;
  std::string tag;           ///< request this shard belongs to
  core::ShardRange range;
  double weight = 1.0;       ///< cost relative to the tag mean
  ShardState state = ShardState::Pending;
  std::size_t attempts = 0;  ///< dispatches so far
  std::string worker;        ///< holder when Leased, completer when Done
  double lease_deadline = 0.0;  ///< absolute, valid when Leased
  double not_before = 0.0;      ///< backoff gate for re-dispatch
  std::string payload;          ///< canonical result bytes when Done
  std::string last_error;       ///< most recent failure reason
};

/// One lease handed out by dispatch(): send `range` to `worker`.
struct Assignment {
  std::uint64_t shard = 0;
  std::string worker;
  std::string tag;
  core::ShardRange range;
  std::size_t attempt = 0;   ///< 1-based
  double deadline_s = 0.0;   ///< relative budget (already weight-scaled)
};

enum class CompletionOutcome {
  Accepted,            ///< first result for this shard — keep it
  DuplicateVerified,   ///< re-delivery, byte-identical — drop it
  DuplicateMismatch,   ///< re-delivery, DIFFERENT bytes — determinism
                       ///< violation; fail the request
  SupersededLate,      ///< result for a split-away parent — drop it
  Unknown,             ///< no such shard (e.g. tag already removed)
};

[[nodiscard]] const char* to_string(CompletionOutcome outcome) noexcept;

/// What a clock edge (or a worker departure) changed.
struct TickReport {
  struct Split {
    std::uint64_t parent = 0;
    std::vector<std::uint64_t> children;
  };
  std::vector<std::string> dead_workers;    ///< heartbeat timed out
  std::vector<std::uint64_t> expired;       ///< leases past deadline
  std::vector<std::uint64_t> quarantined;   ///< newly poisoned shards
  std::vector<Split> splits;                ///< replanned orphans
  /// Every shard now waiting for re-dispatch because of this report —
  /// re-pended originals plus split children (recovery-latency probes).
  std::vector<std::uint64_t> reassigned;

  [[nodiscard]] bool empty() const noexcept {
    return dead_workers.empty() && expired.empty() &&
           quarantined.empty() && splits.empty() && reassigned.empty();
  }
};

struct LeaseCounters {
  std::size_t dispatched = 0;
  std::size_t reassignments = 0;
  std::size_t splits = 0;
  std::size_t duplicates_verified = 0;
  std::size_t duplicate_mismatches = 0;
  std::size_t superseded_late = 0;
  std::size_t quarantined = 0;
  std::size_t worker_deaths = 0;
  std::size_t failures = 0;
};

class LeaseTable {
 public:
  explicit LeaseTable(LeaseOptions options = {});

  /// Registers one shard per non-empty range under `tag`.  `weights`
  /// (when non-empty, parallel to `ranges`) are normalised to their
  /// own mean and drive deadline scaling.  Returns the new shard ids.
  std::vector<std::uint64_t> add_shards(
      const std::string& tag, std::span<const core::ShardRange> ranges,
      std::span<const double> weights = {});

  /// A worker connected (or reconnected).  Fresh heartbeat, no leases:
  /// anything a previous incarnation of the same name still held is an
  /// orphan (the restarted process knows nothing about it) and goes
  /// through the same reassignment path a worker death takes.
  TickReport worker_join(const std::string& name, double now);

  /// A worker disconnected in an observable way.  Its leased shards go
  /// through the same reassignment path a heartbeat death takes.
  TickReport worker_leave(const std::string& name, double now);

  /// Liveness signal.  Unknown names are ignored.
  void heartbeat(const std::string& name, double now);

  /// Matches dispatchable shards (Pending, past backoff) to idle
  /// workers, one lease per worker, in deterministic order (shards by
  /// id, workers by name).  Increments each shard's attempt count.
  [[nodiscard]] std::vector<Assignment> dispatch(double now);

  /// A worker delivered `canonical_payload` for `shard`.  Frees the
  /// worker's slot; see CompletionOutcome for what the result means.
  CompletionOutcome complete(std::uint64_t shard,
                             const std::string& worker,
                             std::string canonical_payload, double now);

  /// A worker reported a compute error for `shard`.  Retries after
  /// backoff until max_attempts, then quarantines.
  void fail_shard(std::uint64_t shard, const std::string& worker,
                  const std::string& error, double now);

  /// Advances time: declares silent workers dead, expires overdue
  /// leases, reassigns (optionally re-splitting) the orphans, and
  /// quarantines shards that exhausted their attempts.
  TickReport tick(double now);

  /// True when no shard of `tag` is still Pending or Leased.
  [[nodiscard]] bool tag_terminal(const std::string& tag) const;

  /// All shards of `tag` (every state), ordered by id.
  [[nodiscard]] std::vector<ShardInfo> tag_shards(
      const std::string& tag) const;

  /// Forgets `tag` (call after responding to the client) but for its
  /// Done shards' tombstones, stamped `now` (see above).
  void remove_tag(const std::string& tag, double now);

  /// Earliest future instant at which tick()/dispatch() could act: the
  /// next lease deadline, backoff expiry or heartbeat timeout.
  /// Returns `now` when a dispatch is possible immediately, +inf when
  /// nothing is scheduled.
  [[nodiscard]] double next_event_time(double now) const;

  [[nodiscard]] const ShardInfo* shard(std::uint64_t id) const;
  [[nodiscard]] const LeaseCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers_.size();
  }
  [[nodiscard]] std::size_t num_idle_workers() const;
  [[nodiscard]] const LeaseOptions& options() const noexcept {
    return options_;
  }

  /// min(cap, base·2^(attempt−1)) · (1 + jitter·hash01(shard, attempt)).
  /// Pure; exposed for the state-machine tests.
  [[nodiscard]] double backoff_delay(std::uint64_t shard,
                                     std::size_t attempt) const;

 private:
  struct Worker {
    double last_heartbeat = 0.0;
    std::set<std::uint64_t> held;  ///< leases this worker is computing
  };

  struct Tombstone {  ///< a removed tag's Done shard
    std::string payload;
    double removed_at = 0.0;
  };

  void release_holders(std::uint64_t shard_id);
  void reassign(std::uint64_t shard_id, double now, TickReport& report);

  LeaseOptions options_;
  std::map<std::uint64_t, ShardInfo> shards_;
  std::map<std::uint64_t, Tombstone> tombstones_;
  std::map<std::string, Worker> workers_;
  std::uint64_t next_id_ = 1;
  LeaseCounters counters_;
};

}  // namespace midas::svc
