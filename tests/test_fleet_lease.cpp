// LeaseTable state machine (svc/lease.h) — pure, clock-injected, no
// threads.  The centrepiece is ONE table-driven walk through the whole
// failure lifecycle: dispatch → heartbeat death → reassignment →
// duplicate-verified-dropped → quarantine after max attempts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/shard.h"
#include "svc/lease.h"

namespace {

using midas::core::ShardRange;
using midas::svc::Assignment;
using midas::svc::CompletionOutcome;
using midas::svc::LeaseOptions;
using midas::svc::LeaseTable;
using midas::svc::ShardInfo;
using midas::svc::ShardState;
using midas::svc::TickReport;

LeaseOptions fast_options() {
  LeaseOptions options;
  options.heartbeat_timeout_s = 5.0;
  options.lease_deadline_s = 100.0;  // heartbeats die first in this test
  options.backoff_base_s = 1.0;
  options.backoff_cap_s = 8.0;
  options.backoff_jitter = 0.0;  // exact delays for the table
  options.max_attempts = 2;
  options.split_on_reassign = false;  // one shard stays one shard
  return options;
}

TEST(LeaseTable, TableDrivenLifecycle) {
  // One shard, two workers.  Worker A keeps dying; the shard survives
  // exactly options.max_attempts (=2) dispatches, then is quarantined.
  // A duplicate completion of a DIFFERENT, healthy shard is verified
  // byte-identical and dropped along the way.
  LeaseTable table(fast_options());
  const ShardRange ranges[] = {{0, 4}, {4, 8}};
  const auto ids = table.add_shards("req", ranges);
  ASSERT_EQ(ids.size(), 2u);
  const std::uint64_t doomed = ids[0];
  const std::uint64_t healthy = ids[1];

  struct Step {
    double t;
    const char* what;
    std::function<void(LeaseTable&, double)> act;
  };
  const auto expect_state = [&](const LeaseTable& lt, std::uint64_t id,
                                ShardState want, const char* when) {
    const ShardInfo* shard = lt.shard(id);
    ASSERT_NE(shard, nullptr) << when;
    EXPECT_EQ(shard->state, want) << when;
  };

  const std::vector<Step> script = {
      {0.0, "both workers join, both shards dispatched",
       [&](LeaseTable& lt, double t) {
         lt.worker_join("worker-a", t);
         lt.worker_join("worker-b", t);
         const auto leases = lt.dispatch(t);
         ASSERT_EQ(leases.size(), 2u);
         // Deterministic matching: shards by id, workers by name.
         EXPECT_EQ(leases[0].shard, doomed);
         EXPECT_EQ(leases[0].worker, "worker-a");
         EXPECT_EQ(leases[0].attempt, 1u);
         EXPECT_EQ(leases[1].shard, healthy);
         EXPECT_EQ(leases[1].worker, "worker-b");
         expect_state(lt, doomed, ShardState::Leased, "after dispatch");
       }},
      {4.0, "worker-b completes; worker-a heartbeats and stays alive",
       [&](LeaseTable& lt, double t) {
         lt.heartbeat("worker-a", t);
         EXPECT_EQ(lt.complete(healthy, "worker-b", "payload-B", t),
                   CompletionOutcome::Accepted);
         expect_state(lt, healthy, ShardState::Done, "after complete");
         EXPECT_TRUE(lt.tick(t).empty());
       }},
      {4.5, "a re-delivered identical result is verified and dropped",
       [&](LeaseTable& lt, double t) {
         EXPECT_EQ(lt.complete(healthy, "worker-b", "payload-B", t),
                   CompletionOutcome::DuplicateVerified);
         EXPECT_EQ(lt.counters().duplicates_verified, 1u);
       }},
      {10.0, "worker-a's heartbeat times out: death + reassignment",
       [&](LeaseTable& lt, double t) {
         lt.heartbeat("worker-b", t);  // b is alive; a has been silent
         const TickReport report = lt.tick(t);
         ASSERT_EQ(report.dead_workers.size(), 1u);
         EXPECT_EQ(report.dead_workers[0], "worker-a");
         ASSERT_EQ(report.reassigned.size(), 1u);
         EXPECT_EQ(report.reassigned[0], doomed);
         expect_state(lt, doomed, ShardState::Pending, "after death");
         EXPECT_EQ(lt.counters().worker_deaths, 1u);
         EXPECT_EQ(lt.counters().reassignments, 1u);
         // Backoff gate: attempt 1 → base·2⁰ = 1 s, no sooner.
         EXPECT_TRUE(lt.dispatch(t).empty());
         EXPECT_DOUBLE_EQ(lt.next_event_time(t), t + 1.0);
       }},
      {11.0, "after backoff the survivor picks the orphan up",
       [&](LeaseTable& lt, double t) {
         const auto leases = lt.dispatch(t);
         ASSERT_EQ(leases.size(), 1u);
         EXPECT_EQ(leases[0].shard, doomed);
         EXPECT_EQ(leases[0].worker, "worker-b");
         EXPECT_EQ(leases[0].attempt, 2u);
       }},
      {12.0, "the survivor dies too — attempts exhausted: quarantine",
       [&](LeaseTable& lt, double t) {
         const TickReport report = lt.worker_leave("worker-b", t);
         ASSERT_EQ(report.quarantined.size(), 1u);
         EXPECT_EQ(report.quarantined[0], doomed);
         expect_state(lt, doomed, ShardState::Quarantined, "after quar");
         EXPECT_EQ(lt.counters().quarantined, 1u);
         // Healthy is Done, doomed is Quarantined: the tag is terminal
         // and the gap is reportable.
         EXPECT_TRUE(lt.tag_terminal("req"));
       }},
  };
  for (const Step& step : script) {
    SCOPED_TRACE(std::string("t=") + std::to_string(step.t) + ": " +
                 step.what);
    step.act(table, step.t);
  }
  EXPECT_EQ(table.counters().dispatched, 3u);  // 2 initial + 1 retry
}

TEST(LeaseTable, FirstResultWinsAndLateDuplicatesAreVerified) {
  LeaseOptions options = fast_options();
  options.lease_deadline_s = 2.0;  // expire quickly
  LeaseTable table(options);
  const ShardRange ranges[] = {{0, 3}};
  const auto ids = table.add_shards("req", ranges);
  table.worker_join("slow", 0.0);
  ASSERT_EQ(table.dispatch(0.0).size(), 1u);

  // The lease expires; the straggler keeps its slot but the shard is
  // offered to a newcomer.
  table.heartbeat("slow", 2.5);
  const TickReport report = table.tick(2.5);
  ASSERT_EQ(report.expired.size(), 1u);
  EXPECT_EQ(table.shard(ids[0])->state, ShardState::Pending);
  EXPECT_TRUE(table.dispatch(3.0).empty());  // straggler is not idle

  table.worker_join("fresh", 3.5);
  const auto leases = table.dispatch(3.5);
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].worker, "fresh");

  // The STRAGGLER finishes first: accepted, new lease revoked.
  EXPECT_EQ(table.complete(ids[0], "slow", "payload", 4.0),
            CompletionOutcome::Accepted);
  EXPECT_EQ(table.shard(ids[0])->worker, "slow");
  // "fresh" was released and can take new work again.
  EXPECT_EQ(table.num_idle_workers(), 2u);
  // Its late identical result is dropped after byte verification; a
  // MISMATCH is flagged as a determinism violation.
  EXPECT_EQ(table.complete(ids[0], "fresh", "payload", 4.5),
            CompletionOutcome::DuplicateVerified);
  EXPECT_EQ(table.complete(ids[0], "fresh", "DIFFERENT", 4.6),
            CompletionOutcome::DuplicateMismatch);
  EXPECT_EQ(table.counters().duplicate_mismatches, 1u);
}

TEST(LeaseTable, RemovedTagVerifiesLateDuplicatesUntilTheWindowCloses) {
  LeaseTable table(fast_options());  // heartbeat_timeout_s = 5
  const ShardRange ranges[] = {{0, 3}};
  const auto ids = table.add_shards("req", ranges);
  table.worker_join("w", 0.0);
  ASSERT_EQ(table.dispatch(0.0).size(), 1u);
  EXPECT_EQ(table.complete(ids[0], "w", "payload", 1.0),
            CompletionOutcome::Accepted);

  // The request is answered and forgotten; the worker's re-delivered
  // frame lands afterwards and is still verified against the payload.
  table.remove_tag("req", 1.0);
  EXPECT_EQ(table.shard(ids[0]), nullptr);
  EXPECT_EQ(table.complete(ids[0], "w", "payload", 2.0),
            CompletionOutcome::DuplicateVerified);
  EXPECT_EQ(table.counters().duplicates_verified, 1u);
  EXPECT_EQ(table.complete(ids[0], "w", "DIFFERENT", 2.0),
            CompletionOutcome::DuplicateMismatch);
  EXPECT_EQ(table.counters().duplicate_mismatches, 1u);

  // One heartbeat timeout after the removal the tombstone is gone.
  EXPECT_EQ(table.complete(ids[0], "w", "payload", 6.5),
            CompletionOutcome::Unknown);
  EXPECT_EQ(table.counters().duplicates_verified, 1u);
}

TEST(LeaseTable, SplitOnReassignFansOrphansAcrossIdleSurvivors) {
  LeaseOptions options = fast_options();
  options.split_on_reassign = true;
  LeaseTable table(options);
  const ShardRange ranges[] = {{0, 8}};
  const auto ids = table.add_shards("req", ranges);
  table.worker_join("a", 0.0);
  ASSERT_EQ(table.dispatch(0.0).size(), 1u);
  table.worker_join("b", 0.5);
  table.worker_join("c", 0.5);

  // "a" dies holding [0, 8); two idle survivors → two child shards.
  const TickReport report = table.worker_leave("a", 1.0);
  ASSERT_EQ(report.splits.size(), 1u);
  EXPECT_EQ(report.splits[0].parent, ids[0]);
  ASSERT_EQ(report.splits[0].children.size(), 2u);
  EXPECT_EQ(table.shard(ids[0])->state, ShardState::Superseded);
  const auto c0 = table.shard(report.splits[0].children[0]);
  const auto c1 = table.shard(report.splits[0].children[1]);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  // Children tile the parent exactly and inherit tag + attempts.
  EXPECT_EQ(c0->range.begin, 0u);
  EXPECT_EQ(c0->range.end, c1->range.begin);
  EXPECT_EQ(c1->range.end, 8u);
  EXPECT_EQ(c0->tag, "req");
  EXPECT_EQ(c0->attempts, 1u);

  // A late result for the superseded parent is dropped.
  EXPECT_EQ(table.complete(ids[0], "a", "late", 2.0),
            CompletionOutcome::SupersededLate);
  EXPECT_EQ(table.counters().superseded_late, 1u);

  // Children complete normally; the tag becomes terminal.
  const auto leases = table.dispatch(10.0);
  ASSERT_EQ(leases.size(), 2u);
  for (const Assignment& lease : leases) {
    EXPECT_EQ(table.complete(lease.shard, lease.worker, "p", 11.0),
              CompletionOutcome::Accepted);
  }
  EXPECT_TRUE(table.tag_terminal("req"));
}

TEST(LeaseTable, BackoffDoublesCapsAndJittersDeterministically) {
  LeaseOptions options;
  options.backoff_base_s = 0.5;
  options.backoff_cap_s = 4.0;
  options.backoff_jitter = 0.0;
  const LeaseTable plain(options);
  EXPECT_DOUBLE_EQ(plain.backoff_delay(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(plain.backoff_delay(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(plain.backoff_delay(1, 3), 2.0);
  EXPECT_DOUBLE_EQ(plain.backoff_delay(1, 4), 4.0);
  EXPECT_DOUBLE_EQ(plain.backoff_delay(1, 9), 4.0);  // capped

  options.backoff_jitter = 0.25;
  const LeaseTable jittered(options);
  const double d1 = jittered.backoff_delay(7, 2);
  EXPECT_GE(d1, 1.0);
  EXPECT_LE(d1, 1.25);
  // Deterministic in (shard, attempt); different across shards.
  EXPECT_DOUBLE_EQ(d1, jittered.backoff_delay(7, 2));
  EXPECT_NE(d1, jittered.backoff_delay(8, 2));
}

TEST(LeaseTable, PilotWeightsScaleLeaseDeadlines) {
  LeaseOptions options;
  options.lease_deadline_s = 10.0;
  options.deadline_weight_cap = 4.0;
  LeaseTable table(options);
  const ShardRange ranges[] = {{0, 2}, {2, 4}, {4, 6}};
  const double weights[] = {1.0, 2.0, 60.0};  // mean 21
  table.add_shards("req", ranges, weights);
  table.worker_join("a", 0.0);
  table.worker_join("b", 0.0);
  table.worker_join("c", 0.0);
  const auto leases = table.dispatch(0.0);
  ASSERT_EQ(leases.size(), 3u);
  // Below-mean shards keep the base deadline; the heavy shard stretches
  // it by weight/mean (60/21 ≈ 2.86, under the ×4 cap).
  EXPECT_DOUBLE_EQ(leases[0].deadline_s, 10.0);
  EXPECT_DOUBLE_EQ(leases[1].deadline_s, 10.0);
  EXPECT_DOUBLE_EQ(leases[2].deadline_s, 10.0 * 60.0 / 21.0);

  // The cap bites on pathologically skewed weights: one shard worth
  // ~10x the mean of its nine siblings still only stretches x4.
  LeaseTable capped(options);
  std::vector<ShardRange> skewed;
  std::vector<double> skewed_w;
  for (std::size_t i = 0; i < 10; ++i) {
    skewed.push_back({i, i + 1});
    skewed_w.push_back(i == 0 ? 1000.0 : 1.0);  // mean 100.9
  }
  capped.add_shards("req", skewed, skewed_w);
  capped.worker_join("a", 0.0);
  const auto capped_leases = capped.dispatch(0.0);
  ASSERT_EQ(capped_leases.size(), 1u);  // the heavy shard dispatches first
  EXPECT_DOUBLE_EQ(capped_leases[0].deadline_s, 40.0);  // x4 cap
}

TEST(LeaseTable, FailShardRetriesThenQuarantines) {
  LeaseOptions options = fast_options();
  options.backoff_jitter = 0.0;
  LeaseTable table(options);
  const ShardRange ranges[] = {{0, 1}};  // single point: never splits
  const auto ids = table.add_shards("req", ranges);
  table.worker_join("a", 0.0);
  ASSERT_EQ(table.dispatch(0.0).size(), 1u);
  table.fail_shard(ids[0], "a", "boom", 1.0);
  EXPECT_EQ(table.shard(ids[0])->state, ShardState::Pending);
  EXPECT_EQ(table.shard(ids[0])->last_error, "boom");
  ASSERT_EQ(table.dispatch(3.0).size(), 1u);  // after 1 s backoff
  table.fail_shard(ids[0], "a", "boom again", 4.0);
  EXPECT_EQ(table.shard(ids[0])->state, ShardState::Quarantined);
  EXPECT_EQ(table.counters().failures, 2u);
  EXPECT_EQ(table.counters().quarantined, 1u);
  EXPECT_TRUE(table.tag_terminal("req"));
}

TEST(LeaseTable, RejoinRevokesStaleLeasesFromThePreviousIncarnation) {
  // A restarted worker's hello can arrive BEFORE the old connection's
  // Closed event.  The rejoin must orphan whatever the previous
  // incarnation held — otherwise (in a single-worker fleet) the worker
  // is never idle again and the request hangs forever.
  LeaseOptions options = fast_options();
  LeaseTable table(options);
  const ShardRange ranges[] = {{0, 4}};
  const auto ids = table.add_shards("req", ranges);
  table.worker_join("only", 0.0);
  ASSERT_EQ(table.dispatch(0.0).size(), 1u);
  EXPECT_EQ(table.num_idle_workers(), 0u);

  const TickReport report = table.worker_join("only", 1.0);
  ASSERT_EQ(report.reassigned.size(), 1u);
  EXPECT_EQ(report.reassigned[0], ids[0]);
  EXPECT_EQ(table.shard(ids[0])->state, ShardState::Pending);
  EXPECT_EQ(table.num_idle_workers(), 1u);  // clean slate

  // After backoff the rejoined worker picks its old shard back up and
  // the request can still finish.
  const auto leases = table.dispatch(3.0);
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].worker, "only");
  EXPECT_EQ(leases[0].attempt, 2u);
  EXPECT_EQ(table.complete(ids[0], "only", "payload", 4.0),
            CompletionOutcome::Accepted);
  EXPECT_TRUE(table.tag_terminal("req"));

  // A first join (nothing held) reports nothing.
  EXPECT_TRUE(table.worker_join("fresh", 5.0).empty());
}

TEST(LeaseTable, LateFailureFromNonHolderDoesNotPolluteErrors) {
  LeaseOptions options = fast_options();
  LeaseTable table(options);
  const ShardRange ranges[] = {{0, 2}};
  const auto ids = table.add_shards("req", ranges);
  table.worker_join("a", 0.0);
  ASSERT_EQ(table.dispatch(0.0).size(), 1u);
  EXPECT_EQ(table.complete(ids[0], "a", "payload", 1.0),
            CompletionOutcome::Accepted);

  // A late error from a superseded/expired holder must leave a Done
  // shard's recorded error alone — the gap report depends on it.
  table.fail_shard(ids[0], "a", "late straggler error", 2.0);
  EXPECT_EQ(table.shard(ids[0])->state, ShardState::Done);
  EXPECT_EQ(table.shard(ids[0])->last_error, "");
  EXPECT_EQ(table.counters().failures, 1u);  // still counted as seen
}

TEST(LeaseTable, NextEventTimeCoversDispatchDeadlineAndHeartbeat) {
  LeaseOptions options;
  options.heartbeat_timeout_s = 7.0;
  options.lease_deadline_s = 3.0;
  options.backoff_jitter = 0.0;
  LeaseTable table(options);
  EXPECT_TRUE(std::isinf(table.next_event_time(0.0)));

  const ShardRange ranges[] = {{0, 2}};
  table.add_shards("req", ranges);
  table.worker_join("a", 0.0);
  // Dispatchable now with an idle worker → "now".
  EXPECT_DOUBLE_EQ(table.next_event_time(1.0), 1.0);
  ASSERT_EQ(table.dispatch(1.0).size(), 1u);
  // Leased: the next edge is the lease deadline (1 + 3), before the
  // heartbeat timeout (0 + 7).
  EXPECT_DOUBLE_EQ(table.next_event_time(1.0), 4.0);
}

}  // namespace
