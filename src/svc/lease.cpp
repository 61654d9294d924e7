#include "svc/lease.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace midas::svc {

namespace {

/// Deterministic [0, 1) hash of (shard, attempt) — splitmix64 finaliser.
double hash01(std::uint64_t shard, std::uint64_t attempt) {
  std::uint64_t x = shard * 0x9E3779B97F4A7C15ULL + attempt;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// A re-delivered `payload` checked against the `accepted` one.
CompletionOutcome verify_duplicate(const std::string& accepted,
                                   const std::string& payload,
                                   LeaseCounters& counters) {
  if (accepted == payload) {
    ++counters.duplicates_verified;
    return CompletionOutcome::DuplicateVerified;
  }
  ++counters.duplicate_mismatches;
  return CompletionOutcome::DuplicateMismatch;
}

}  // namespace

const char* to_string(ShardState state) noexcept {
  switch (state) {
    case ShardState::Pending: return "pending";
    case ShardState::Leased: return "leased";
    case ShardState::Done: return "done";
    case ShardState::Quarantined: return "quarantined";
    case ShardState::Superseded: return "superseded";
  }
  return "?";
}

const char* to_string(CompletionOutcome outcome) noexcept {
  switch (outcome) {
    case CompletionOutcome::Accepted: return "accepted";
    case CompletionOutcome::DuplicateVerified: return "duplicate-verified";
    case CompletionOutcome::DuplicateMismatch: return "duplicate-mismatch";
    case CompletionOutcome::SupersededLate: return "superseded-late";
    case CompletionOutcome::Unknown: return "unknown";
  }
  return "?";
}

LeaseTable::LeaseTable(LeaseOptions options) : options_(options) {}

double LeaseTable::backoff_delay(std::uint64_t shard,
                                 std::size_t attempt) const {
  const std::size_t doublings = attempt == 0 ? 0 : attempt - 1;
  const double base =
      std::min(options_.backoff_cap_s,
               options_.backoff_base_s * std::ldexp(1.0, doublings));
  return base * (1.0 + options_.backoff_jitter * hash01(shard, attempt));
}

std::vector<std::uint64_t> LeaseTable::add_shards(
    const std::string& tag, std::span<const core::ShardRange> ranges,
    std::span<const double> weights) {
  if (!weights.empty() && weights.size() != ranges.size()) {
    throw std::invalid_argument(
        "LeaseTable::add_shards: weights/ranges size mismatch");
  }
  double sum = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].empty()) continue;
    ++used;
    if (!weights.empty()) sum += weights[i];
  }
  const double mean = (used > 0 && sum > 0.0)
                          ? sum / static_cast<double>(used)
                          : 0.0;
  std::vector<std::uint64_t> ids;
  ids.reserve(used);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].empty()) continue;
    ShardInfo shard;
    shard.id = next_id_++;
    shard.tag = tag;
    shard.range = ranges[i];
    shard.weight = mean > 0.0 ? weights[i] / mean : 1.0;
    ids.push_back(shard.id);
    shards_.emplace(shard.id, std::move(shard));
  }
  return ids;
}

TickReport LeaseTable::worker_join(const std::string& name, double now) {
  TickReport report;
  Worker& worker = workers_[name];
  worker.last_heartbeat = now;
  if (worker.held.empty()) return report;
  // Rejoin before the old connection's Closed event: the leases the
  // previous incarnation held would otherwise never be revoked (the
  // stale conn id no longer matches), starving the worker of new work.
  const std::set<std::uint64_t> held = std::move(worker.held);
  worker.held.clear();
  for (std::uint64_t id : held) {
    auto it = shards_.find(id);
    if (it == shards_.end()) continue;
    if (it->second.state != ShardState::Leased ||
        it->second.worker != name) {
      continue;  // already reassigned elsewhere; nothing to revoke
    }
    reassign(id, now, report);
  }
  return report;
}

void LeaseTable::heartbeat(const std::string& name, double now) {
  auto it = workers_.find(name);
  if (it != workers_.end()) it->second.last_heartbeat = now;
}

std::size_t LeaseTable::num_idle_workers() const {
  std::size_t idle = 0;
  for (const auto& [name, worker] : workers_) {
    if (worker.held.empty()) ++idle;
  }
  return idle;
}

std::vector<Assignment> LeaseTable::dispatch(double now) {
  std::vector<std::string> idle;
  for (const auto& [name, worker] : workers_) {
    if (worker.held.empty()) idle.push_back(name);
  }
  std::vector<Assignment> out;
  std::size_t next_idle = 0;
  for (auto& [id, shard] : shards_) {
    if (next_idle >= idle.size()) break;
    if (shard.state != ShardState::Pending || shard.not_before > now) {
      continue;
    }
    const std::string& name = idle[next_idle++];
    shard.state = ShardState::Leased;
    shard.worker = name;
    ++shard.attempts;
    const double scale =
        std::clamp(shard.weight, 1.0, options_.deadline_weight_cap);
    const double budget_s = options_.lease_deadline_s * scale;
    shard.lease_deadline = now + budget_s;
    workers_.at(name).held.insert(id);
    ++counters_.dispatched;
    out.push_back(Assignment{id, name, shard.tag, shard.range,
                             shard.attempts, budget_s});
  }
  return out;
}

void LeaseTable::release_holders(std::uint64_t shard_id) {
  for (auto& [name, worker] : workers_) worker.held.erase(shard_id);
}

CompletionOutcome LeaseTable::complete(std::uint64_t shard_id,
                                       const std::string& worker,
                                       std::string canonical_payload,
                                       double now) {
  auto holder = workers_.find(worker);
  if (holder != workers_.end()) {
    holder->second.held.erase(shard_id);
    // A result is liveness evidence, heartbeat or not.
    holder->second.last_heartbeat = now;
  }
  auto it = shards_.find(shard_id);
  if (it == shards_.end()) {
    // A removed tag's shard: verified while its tombstone lasts.
    const auto tomb = tombstones_.find(shard_id);
    if (tomb == tombstones_.end() ||
        now - tomb->second.removed_at > options_.heartbeat_timeout_s) {
      return CompletionOutcome::Unknown;
    }
    return verify_duplicate(tomb->second.payload, canonical_payload,
                            counters_);
  }
  ShardInfo& shard = it->second;
  switch (shard.state) {
    case ShardState::Done:
      release_holders(shard_id);
      return verify_duplicate(shard.payload, canonical_payload, counters_);
    case ShardState::Superseded:
      release_holders(shard_id);
      ++counters_.superseded_late;
      return CompletionOutcome::SupersededLate;
    case ShardState::Pending:
    case ShardState::Leased:
    case ShardState::Quarantined:
      // First result wins, whoever computed it — including a straggler
      // whose lease already expired, or a shard already written off as
      // poison.  Any other holder's slot is freed; its eventual result
      // will come back as DuplicateVerified.
      release_holders(shard_id);
      shard.state = ShardState::Done;
      shard.worker = worker;
      shard.payload = std::move(canonical_payload);
      return CompletionOutcome::Accepted;
  }
  return CompletionOutcome::Unknown;
}

void LeaseTable::fail_shard(std::uint64_t shard_id,
                            const std::string& worker,
                            const std::string& error, double now) {
  ++counters_.failures;
  auto holder = workers_.find(worker);
  if (holder != workers_.end()) {
    holder->second.held.erase(shard_id);
    holder->second.last_heartbeat = now;  // an error report is liveness too
  }
  auto it = shards_.find(shard_id);
  if (it == shards_.end()) return;
  ShardInfo& shard = it->second;
  // A failure only moves the shard — or records its error — when the
  // reporter still owns the lease; late errors after reassignment or
  // completion change nothing (a superseded holder must not pollute a
  // Done/Quarantined shard's gap report).
  if (shard.state != ShardState::Leased || shard.worker != worker) {
    return;
  }
  shard.last_error = error;
  shard.worker.clear();
  if (shard.attempts >= options_.max_attempts) {
    shard.state = ShardState::Quarantined;
    ++counters_.quarantined;
  } else {
    shard.state = ShardState::Pending;
    shard.not_before = now + backoff_delay(shard_id, shard.attempts);
  }
}

void LeaseTable::reassign(std::uint64_t shard_id, double now,
                          TickReport& report) {
  ShardInfo& shard = shards_.at(shard_id);
  ++counters_.reassignments;
  shard.worker.clear();
  if (shard.attempts >= options_.max_attempts) {
    shard.state = ShardState::Quarantined;
    if (shard.last_error.empty()) {
      shard.last_error = "lease lost " + std::to_string(shard.attempts) +
                         " time(s) (worker death or deadline)";
    }
    ++counters_.quarantined;
    report.quarantined.push_back(shard_id);
    return;
  }
  // Re-split the orphaned range across the idle survivors so recovery
  // is parallel, not serial through one unlucky worker.
  const std::size_t pieces =
      std::min(num_idle_workers(), shard.range.size());
  if (options_.split_on_reassign && pieces >= 2) {
    const core::ShardRange parent_range[] = {shard.range};
    const auto child_ranges = core::ShardPlan::replan(parent_range, pieces);
    if (child_ranges.size() >= 2) {
      shard.state = ShardState::Superseded;
      TickReport::Split split;
      split.parent = shard_id;
      const std::string tag = shard.tag;
      const double weight = shard.weight;
      const std::size_t attempts = shard.attempts;
      const double parent_size = static_cast<double>(shard.range.size());
      for (const core::ShardRange& range : child_ranges) {
        ShardInfo child;
        child.id = next_id_++;
        child.tag = tag;
        child.range = range;
        child.weight =
            weight * static_cast<double>(range.size()) / parent_size;
        child.attempts = attempts;
        child.not_before = now + backoff_delay(child.id, attempts);
        split.children.push_back(child.id);
        report.reassigned.push_back(child.id);
        shards_.emplace(child.id, std::move(child));
      }
      ++counters_.splits;
      report.splits.push_back(std::move(split));
      return;
    }
  }
  shard.state = ShardState::Pending;
  shard.not_before = now + backoff_delay(shard_id, shard.attempts);
  report.reassigned.push_back(shard_id);
}

TickReport LeaseTable::worker_leave(const std::string& name, double now) {
  TickReport report;
  auto it = workers_.find(name);
  if (it == workers_.end()) return report;
  const std::set<std::uint64_t> held = std::move(it->second.held);
  workers_.erase(it);
  report.dead_workers.push_back(name);
  bool held_lease = false;
  for (std::uint64_t id : held) {
    auto shard_it = shards_.find(id);
    if (shard_it == shards_.end()) continue;
    const ShardInfo& shard = shard_it->second;
    if (shard.state != ShardState::Leased || shard.worker != name) {
      continue;  // already reassigned elsewhere; nothing to revoke
    }
    held_lease = true;
    reassign(id, now, report);
  }
  if (held_lease) ++counters_.worker_deaths;
  return report;
}

TickReport LeaseTable::tick(double now) {
  TickReport report;
  // 1. Heartbeat deaths.  Collect first: reassignment mutates workers_.
  std::vector<std::string> dead;
  for (const auto& [name, worker] : workers_) {
    if (now - worker.last_heartbeat > options_.heartbeat_timeout_s) {
      dead.push_back(name);
    }
  }
  for (const std::string& name : dead) {
    const std::set<std::uint64_t> held =
        std::move(workers_.at(name).held);
    workers_.erase(name);
    ++counters_.worker_deaths;
    report.dead_workers.push_back(name);
    for (std::uint64_t id : held) {
      auto it = shards_.find(id);
      if (it == shards_.end()) continue;
      if (it->second.state != ShardState::Leased ||
          it->second.worker != name) {
        continue;
      }
      reassign(id, now, report);
    }
  }
  // 2. Expired leases (stragglers).  The holder keeps its slot — it is
  // presumably still computing — but the shard is offered to others.
  std::vector<std::uint64_t> expired;
  for (const auto& [id, shard] : shards_) {
    if (shard.state == ShardState::Leased &&
        shard.lease_deadline <= now) {
      expired.push_back(id);
    }
  }
  for (std::uint64_t id : expired) {
    report.expired.push_back(id);
    reassign(id, now, report);
  }
  // 3. Tombstones past their window.
  std::erase_if(tombstones_, [&](const auto& entry) {
    return now - entry.second.removed_at > options_.heartbeat_timeout_s;
  });
  return report;
}

bool LeaseTable::tag_terminal(const std::string& tag) const {
  for (const auto& [id, shard] : shards_) {
    if (shard.tag != tag) continue;
    if (shard.state == ShardState::Pending ||
        shard.state == ShardState::Leased) {
      return false;
    }
  }
  return true;
}

std::vector<ShardInfo> LeaseTable::tag_shards(
    const std::string& tag) const {
  std::vector<ShardInfo> out;
  for (const auto& [id, shard] : shards_) {
    if (shard.tag == tag) out.push_back(shard);
  }
  return out;
}

void LeaseTable::remove_tag(const std::string& tag, double now) {
  for (auto it = shards_.begin(); it != shards_.end();) {
    if (it->second.tag == tag) {
      release_holders(it->first);
      if (it->second.state == ShardState::Done) {
        tombstones_[it->first] = {std::move(it->second.payload), now};
      }
      it = shards_.erase(it);
    } else {
      ++it;
    }
  }
}

double LeaseTable::next_event_time(double now) const {
  double next = std::numeric_limits<double>::infinity();
  const bool idle_exists = num_idle_workers() > 0;
  for (const auto& [id, shard] : shards_) {
    switch (shard.state) {
      case ShardState::Pending:
        if (shard.not_before <= now) {
          if (idle_exists) return now;
        } else {
          next = std::min(next, shard.not_before);
        }
        break;
      case ShardState::Leased:
        next = std::min(next, shard.lease_deadline);
        break;
      default:
        break;
    }
  }
  for (const auto& [name, worker] : workers_) {
    next = std::min(next,
                    worker.last_heartbeat + options_.heartbeat_timeout_s);
  }
  return next;
}

const ShardInfo* LeaseTable::shard(std::uint64_t id) const {
  auto it = shards_.find(id);
  return it == shards_.end() ? nullptr : &it->second;
}

}  // namespace midas::svc
