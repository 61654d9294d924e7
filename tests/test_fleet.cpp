// Fleet integration over the in-memory transport: coordinator +
// svc::Worker instances wired through a MemoryHub, no processes and no
// sockets — but the SAME byte-level framing, so crash/straggler/
// truncation faults exercise the identical recovery paths the TCP
// fleet runs (fleet_soak drills those with real processes in ci.sh).
//
// The load-bearing assertion everywhere: a fleet that lost workers
// mid-run still answers with a merged ExperimentResult whose canonical
// JSON is byte-identical to a crash-free single-process run.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "svc/coordinator.h"
#include "svc/fault.h"
#include "svc/transport.h"
#include "svc/worker.h"
#include "util/json.h"

namespace {

using namespace midas;
using core::AxisSpec;
using core::BackendKind;
using core::ExperimentResult;
using core::ExperimentService;
using core::ExperimentSpec;

/// 4-point analytic grid: cheap enough that recovery timing, not
/// compute, dominates these tests.
ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.name = "fleet-test";
  spec.mode = "unit";
  spec.base = core::Params::paper_defaults();
  spec.base.n_init = 12;
  spec.base.max_groups = 1;
  AxisSpec m;
  m.param = "num_voters";
  m.values = {3, 5};
  AxisSpec t;
  t.param = "t_ids";
  t.values = {60.0, 600.0};
  spec.axes = {std::move(m), std::move(t)};
  spec.backends = {BackendKind::Analytic};
  return spec;
}

std::string reference_canonical(const ExperimentSpec& spec) {
  ExperimentService service;
  return service.run(spec).canonical_json().dump_compact();
}

svc::CoordinatorOptions fast_coordinator() {
  svc::CoordinatorOptions options;
  options.lease.heartbeat_timeout_s = 1.0;
  options.lease.lease_deadline_s = 30.0;
  options.lease.backoff_base_s = 0.05;
  options.lease.backoff_cap_s = 0.5;
  options.lease.max_attempts = 4;
  options.shards_per_worker = 2;
  return options;
}

svc::WorkerOptions fast_worker(const std::string& name) {
  svc::WorkerOptions options;
  options.name = name;
  options.heartbeat_interval_s = 0.2;
  options.poll_timeout_s = 0.1;
  options.service.threads = 1;
  return options;
}

/// Thrown by the test crash hook: "the worker process died here".
struct CrashSignal {};

struct Fleet {
  svc::MemoryHub hub;
  svc::Coordinator coordinator;
  std::thread serve_thread;
  std::vector<std::thread> workers;
  bool stopped = false;

  explicit Fleet(const svc::CoordinatorOptions& options)
      : coordinator(options) {
    serve_thread =
        std::thread([this] { coordinator.serve(hub, nullptr); });
  }

  void spawn_worker(svc::WorkerOptions options) {
    options.crash = [](int) { throw CrashSignal{}; };
    auto connection = hub.connect();
    workers.emplace_back([connection, options] {
      svc::Worker worker(options);
      try {
        (void)worker.run(*connection);
      } catch (const CrashSignal&) {
        // A real worker would be gone; the closed connection below is
        // exactly what the coordinator observes.
      }
      connection->close();
    });
  }

  /// Polls the coordinator's stats (refreshed every tick) until `done`
  /// holds; false after `timeout_s`.
  template <class Done>
  bool wait_until(Done done, double timeout_s = 10.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (!done(coordinator.stats())) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
  }

  bool wait_for_workers(std::size_t n) {
    return wait_until([n](const svc::CoordinatorStats& s) {
      return s.workers_seen >= n;
    });
  }

  /// Sends one request and blocks for its response/error frame.
  util::Json request(const ExperimentSpec& spec, double timeout_s = 60.0) {
    auto connection = hub.connect();
    util::Json frame = util::Json::object();
    frame.set("type", util::Json("request"));
    frame.set("id", util::Json("client"));
    frame.set("spec", spec.to_json());
    connection->send(frame);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      svc::RecvResult r = connection->recv(0.5);
      if (r.status == svc::RecvResult::Status::Timeout) continue;
      if (r.status != svc::RecvResult::Status::Frame) break;
      const std::string& type = r.frame.at("type").as_string();
      if (type == "response" || type == "error") {
        connection->close();
        return r.frame;
      }
    }
    connection->close();
    return util::Json();  // null = no answer
  }

  void stop() {
    if (stopped) return;
    stopped = true;
    coordinator.request_stop();
    serve_thread.join();
    for (std::thread& worker : workers) worker.join();
  }

  ~Fleet() { stop(); }
};

std::string canonical_of_response(const util::Json& response) {
  return ExperimentResult::from_json(response.at("result"))
      .canonical_json()
      .dump_compact();
}

TEST(Fleet, CleanRunMergesBitwiseAndDropsDuplicateResults) {
  const ExperimentSpec spec = tiny_spec();
  const std::string reference = reference_canonical(spec);

  Fleet fleet(fast_coordinator());
  auto w0 = fast_worker("w0");
  w0.faults.duplicate_result = 1;  // re-delivery drill: same bytes twice
  fleet.spawn_worker(w0);
  fleet.spawn_worker(fast_worker("w1"));
  ASSERT_TRUE(fleet.wait_for_workers(2));

  const util::Json response = fleet.request(spec);
  ASSERT_FALSE(response.is_null()) << "no response from coordinator";
  ASSERT_EQ(response.at("type").as_string(), "response");
  EXPECT_TRUE(response.at("complete").as_bool());
  EXPECT_EQ(response.at("gaps").size(), 0u);
  EXPECT_EQ(canonical_of_response(response), reference);

  // w0's duplicate can still be queued when the response arrives, and
  // stop() drops queued events: wait until a tick has verified it.
  EXPECT_TRUE(fleet.wait_until([](const svc::CoordinatorStats& s) {
    return s.lease.duplicates_verified >= 1;
  }));
  fleet.stop();
  const svc::CoordinatorStats stats = fleet.coordinator.stats();
  EXPECT_EQ(stats.lease.duplicates_verified, 1u);
  EXPECT_EQ(stats.lease.duplicate_mismatches, 0u);
  EXPECT_EQ(stats.lease.worker_deaths, 0u);
}

TEST(Fleet, WorkerCrashesMidRunAreRecoveredBitwise) {
  const ExperimentSpec spec = tiny_spec();
  const std::string reference = reference_canonical(spec);

  Fleet fleet(fast_coordinator());
  auto crash_early = fast_worker("w0");
  crash_early.faults.crash_mid_shard = 1;  // dies computing lease #1
  auto crash_late = fast_worker("w1");
  crash_late.faults.crash_before_result = 1;  // dies AFTER computing
  fleet.spawn_worker(crash_early);
  fleet.spawn_worker(crash_late);
  fleet.spawn_worker(fast_worker("w2"));  // the survivor
  ASSERT_TRUE(fleet.wait_for_workers(3));

  const util::Json response = fleet.request(spec);
  ASSERT_FALSE(response.is_null()) << "no response from coordinator";
  ASSERT_EQ(response.at("type").as_string(), "response");
  EXPECT_TRUE(response.at("complete").as_bool());
  EXPECT_EQ(canonical_of_response(response), reference);

  fleet.stop();
  const svc::CoordinatorStats stats = fleet.coordinator.stats();
  EXPECT_EQ(stats.lease.worker_deaths, 2u);
  EXPECT_GE(stats.lease.reassignments, 2u);
  EXPECT_GE(stats.recoveries, 1u);
}

TEST(Fleet, StalledHeartbeatStragglerIsDeclaredDeadAndOvertaken) {
  const ExperimentSpec spec = tiny_spec();
  const std::string reference = reference_canonical(spec);

  Fleet fleet(fast_coordinator());
  auto straggler = fast_worker("w0");
  straggler.faults.stall_heartbeat_after = 1;  // silent once leased
  straggler.faults.delay_result_s = 2.5;       // well past the timeout
  fleet.spawn_worker(straggler);
  fleet.spawn_worker(fast_worker("w1"));
  ASSERT_TRUE(fleet.wait_for_workers(2));

  const util::Json response = fleet.request(spec);
  ASSERT_FALSE(response.is_null()) << "no response from coordinator";
  ASSERT_EQ(response.at("type").as_string(), "response");
  EXPECT_TRUE(response.at("complete").as_bool());
  EXPECT_EQ(canonical_of_response(response), reference);

  fleet.stop();
  const svc::CoordinatorStats stats = fleet.coordinator.stats();
  EXPECT_GE(stats.lease.worker_deaths, 1u);   // heartbeat timeout fired
  EXPECT_GE(stats.lease.reassignments, 1u);   // the orphan moved on
}

TEST(Fleet, PoisonShardsAreQuarantinedAndReportedAsNamedGaps) {
  svc::CoordinatorOptions options = fast_coordinator();
  options.lease.max_attempts = 2;
  options.shards_per_worker = 1;
  Fleet fleet(options);

  // An "evil" worker speaking the raw protocol: every lease fails.
  auto connection = fleet.hub.connect();
  util::Json hello = util::Json::object();
  hello.set("type", util::Json("hello"));
  hello.set("worker", util::Json("evil"));
  connection->send(hello);
  std::thread evil([connection] {
    while (true) {
      svc::RecvResult r = connection->recv(0.2);
      if (r.status == svc::RecvResult::Status::Timeout) {
        util::Json beat = util::Json::object();
        beat.set("type", util::Json("heartbeat"));
        beat.set("worker", util::Json("evil"));
        try {
          connection->send(beat);
        } catch (...) {
          return;
        }
        continue;
      }
      if (r.status != svc::RecvResult::Status::Frame) return;
      if (r.frame.at("type").as_string() == "shutdown") return;
      if (r.frame.at("type").as_string() != "lease") continue;
      util::Json fail = util::Json::object();
      fail.set("type", util::Json("shard_error"));
      fail.set("worker", util::Json("evil"));
      fail.set("request", r.frame.at("request"));
      fail.set("shard", r.frame.at("shard"));
      fail.set("error", util::Json("synthetic poison"));
      connection->send(fail);
    }
  });
  ASSERT_TRUE(fleet.wait_for_workers(1));

  const ExperimentSpec spec = tiny_spec();
  const util::Json response = fleet.request(spec);
  ASSERT_FALSE(response.is_null()) << "no response from coordinator";
  ASSERT_EQ(response.at("type").as_string(), "response");
  EXPECT_FALSE(response.at("complete").as_bool());
  ASSERT_GE(response.at("gaps").size(), 1u);
  // Gaps name the range and the reason; the payload still merges (the
  // quarantined ranges carry explicit filler slices).
  const util::Json& gap = response.at("gaps").at(0);
  EXPECT_EQ(gap.at("error").as_string(), "synthetic poison");
  EXPECT_EQ(gap.at("attempts").as_size(), 2u);
  EXPECT_LT(gap.at("range").at("begin").as_size(),
            gap.at("range").at("end").as_size());
  const ExperimentResult merged =
      ExperimentResult::from_json(response.at("result"));
  EXPECT_EQ(merged.range.size(), spec.grid().num_points());

  fleet.stop();
  evil.join();
  EXPECT_GE(fleet.coordinator.stats().lease.quarantined, 1u);
}

TEST(Fleet, GarbageFramesAreTypedErrorsAndServiceSurvives) {
  const ExperimentSpec spec = tiny_spec();
  const std::string reference = reference_canonical(spec);

  Fleet fleet(fast_coordinator());
  fleet.spawn_worker(fast_worker("w0"));
  ASSERT_TRUE(fleet.wait_for_workers(1));

  // A peer that dies mid-frame (no terminating newline)...
  auto truncated = fleet.hub.connect();
  truncated->send_bytes("{\"type\":\"hello\",\"worker\":\"half");
  truncated->close();
  // ...and one that sends non-UTF-8 garbage.
  auto garbage = fleet.hub.connect();
  garbage->send_bytes("\xFF\xFE\xFD\n");

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (fleet.coordinator.stats().protocol_errors < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fleet.coordinator.stats().protocol_errors, 2u);
  garbage->close();

  // The coordinator shrugged it off: a well-formed request still
  // completes bitwise.
  const util::Json response = fleet.request(spec);
  ASSERT_FALSE(response.is_null());
  ASSERT_EQ(response.at("type").as_string(), "response");
  EXPECT_TRUE(response.at("complete").as_bool());
  EXPECT_EQ(canonical_of_response(response), reference);
}

TEST(Fleet, InvalidSpecsAreRejectedWithTheValidationPath) {
  Fleet fleet(fast_coordinator());
  ExperimentSpec bad = tiny_spec();
  bad.mc.block = 0;  // validation failure with a named path
  const util::Json response = fleet.request(bad);
  ASSERT_FALSE(response.is_null());
  EXPECT_EQ(response.at("type").as_string(), "error");
  EXPECT_NE(response.at("error").as_string().find("spec.mc.block"),
            std::string::npos);

  // Sharded requests are the coordinator's job, not the client's.
  ExperimentSpec sharded = tiny_spec();
  sharded.shard.policy = core::ShardSpec::Policy::Contiguous;
  sharded.shard.num_shards = 2;
  const util::Json rejected = fleet.request(sharded);
  ASSERT_FALSE(rejected.is_null());
  EXPECT_EQ(rejected.at("type").as_string(), "error");
}

TEST(Fleet, DrainSendsShutdownAndWorkersExitCleanly) {
  Fleet fleet(fast_coordinator());
  auto connection = fleet.hub.connect();
  std::thread worker_thread([connection] {
    svc::Worker worker(fast_worker("w0"));
    EXPECT_EQ(worker.run(*connection), svc::WorkerExit::Shutdown);
    connection->close();
  });
  ASSERT_TRUE(fleet.wait_for_workers(1));
  fleet.stop();  // drain: the worker must see the shutdown frame
  worker_thread.join();
}

}  // namespace
