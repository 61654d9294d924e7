#include "svc/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/shard.h"

namespace midas::svc {

namespace {

double monotonic_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The request spec restricted to one leased range: Explicit policy,
/// shard_index = the lease-table shard id (globally unique, so merged
/// parts always have distinct indices and error messages name the
/// actual lease).
core::ExperimentSpec lease_spec(const core::ExperimentSpec& spec,
                                core::ShardRange range,
                                std::uint64_t shard_id) {
  core::ExperimentSpec out = spec;
  out.shard.policy = core::ShardSpec::Policy::Explicit;
  out.shard.range = range;
  out.shard.num_shards = 1;
  out.shard.shard_index = static_cast<std::size_t>(shard_id);
  return out;
}

/// A default-payload slice standing in for a quarantined range so the
/// remaining shards still tile the grid at merge time.  The response
/// names the gap; the filler keeps the merge mechanical.
core::ExperimentResult filler_part(const core::ExperimentSpec& spec,
                                   core::ShardRange range,
                                   std::uint64_t shard_id) {
  core::ExperimentResult part;
  part.spec = lease_spec(spec, range, shard_id);
  part.range = range;
  part.num_shards = 1;
  part.shard_index = static_cast<std::size_t>(shard_id);
  part.shard_policy = to_string(core::ShardSpec::Policy::Explicit);
  for (const core::BackendKind kind : spec.backends) {
    core::BackendRun run;
    run.kind = kind;
    if (kind == core::BackendKind::Analytic) {
      run.evals.resize(range.size());
    } else {
      run.mc.resize(range.size());
    }
    part.backends.push_back(std::move(run));
  }
  return part;
}

util::Json range_json(core::ShardRange range) {
  util::Json j = util::Json::object();
  j.set("begin", util::Json(static_cast<double>(range.begin)));
  j.set("end", util::Json(static_cast<double>(range.end)));
  return j;
}

}  // namespace

struct Coordinator::Impl {
  explicit Impl(CoordinatorOptions opts)
      : options(opts), table(opts.lease) {}

  // --- Event queue (readers/acceptor → state thread). -----------------
  struct Event {
    enum class Kind { Accepted, Frame, Closed };
    Kind kind = Kind::Frame;
    std::uint64_t conn = 0;
    std::shared_ptr<Connection> connection;  // Accepted only
    util::Json frame;                        // Frame only
    std::string error;                       // Closed only
    bool protocol = false;                   // Closed: malformed bytes
  };

  void enqueue(Event event) {
    {
      std::lock_guard lock(queue_mutex);
      queue.push_back(std::move(event));
    }
    queue_cv.notify_all();
  }

  bool dequeue(Event& event, double timeout_s) {
    std::unique_lock lock(queue_mutex);
    queue_cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [this] { return !queue.empty(); });
    if (queue.empty()) return false;
    event = std::move(queue.front());
    queue.pop_front();
    return true;
  }

  // --- Connection registry (state thread only). -----------------------
  struct Conn {
    std::shared_ptr<Connection> connection;
    std::thread reader;
    enum class Role { Unknown, Worker, Client } role = Role::Unknown;
    std::string worker;
  };

  // --- Request bookkeeping (state thread only). -----------------------
  struct Request {
    std::string client_id;  ///< the id the client chose
    std::uint64_t conn = 0;
    core::ExperimentSpec spec;
    bool failed = false;
    std::string failure;
    std::map<std::uint64_t, core::ExperimentResult> parts;
  };

  CoordinatorOptions options;
  LeaseTable table;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<Event> queue;
  std::atomic<bool> stop{false};

  std::map<std::uint64_t, Conn> conns;
  std::vector<std::thread> retired;
  std::uint64_t next_conn_id = 1;
  std::uint64_t next_request_serial = 1;

  std::map<std::string, Request> requests;           // by lease tag
  std::map<std::string, std::uint64_t> worker_conns;  // name → conn id
  std::set<std::string> worker_names_seen;
  std::map<std::uint64_t, double> orphaned_at;  // shard → reassign time

  mutable std::mutex stats_mutex;
  CoordinatorStats stats;

  // --------------------------------------------------------------------

  void start_reader(std::uint64_t id,
                    const std::shared_ptr<Connection>& connection) {
    conns[id].reader = std::thread([this, id, connection] {
      while (!stop.load(std::memory_order_relaxed)) {
        RecvResult r = connection->recv(options.poll_timeout_s);
        switch (r.status) {
          case RecvResult::Status::Timeout:
            continue;
          case RecvResult::Status::Frame: {
            Event event;
            event.kind = Event::Kind::Frame;
            event.conn = id;
            event.frame = std::move(r.frame);
            enqueue(std::move(event));
            continue;
          }
          case RecvResult::Status::Closed:
          case RecvResult::Status::ProtocolError: {
            Event event;
            event.kind = Event::Kind::Closed;
            event.conn = id;
            event.error = std::move(r.error);
            event.protocol = r.status == RecvResult::Status::ProtocolError;
            enqueue(std::move(event));
            return;
          }
        }
      }
    });
  }

  void send_or_drop(std::uint64_t conn_id, const util::Json& frame,
                    double now) {
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    try {
      it->second.connection->send(frame);
    } catch (const std::exception& e) {
      handle_closed(conn_id, e.what(), /*protocol=*/false, now);
    }
  }

  // --- Frame handlers. -------------------------------------------------

  void handle_frame(std::uint64_t conn_id, const util::Json& frame,
                    double now) {
    const std::string& type = frame.at("type").as_string();
    if (type == "hello") {
      handle_hello(conn_id, frame, now);
    } else if (type == "heartbeat") {
      table.heartbeat(frame.at("worker").as_string(), now);
    } else if (type == "request") {
      handle_request(conn_id, frame, now);
    } else if (type == "result") {
      handle_result(frame, now);
    } else if (type == "shard_error") {
      table.fail_shard(frame.at("shard").as_u64(),
                       frame.at("worker").as_string(),
                       frame.at("error").as_string(), now);
    } else {
      throw std::runtime_error("unknown frame type '" + type + "'");
    }
  }

  void handle_hello(std::uint64_t conn_id, const util::Json& frame,
                    double now) {
    const std::string name = frame.at("worker").as_string();
    Conn& conn = conns.at(conn_id);
    conn.role = Conn::Role::Worker;
    conn.worker = name;
    worker_conns[name] = conn_id;
    worker_names_seen.insert(name);
    // A rejoin can beat the old connection's Closed event; any leases
    // the previous incarnation held come back as reassignments.
    absorb(table.worker_join(name, now), now);
  }

  void handle_request(std::uint64_t conn_id, const util::Json& frame,
                      double now) {
    const std::string client_id = frame.at("id").as_string();
    conns.at(conn_id).role = Conn::Role::Client;
    const auto reject = [&](const std::string& why) {
      util::Json err = util::Json::object();
      err.set("type", util::Json("error"));
      err.set("id", util::Json(client_id));
      err.set("error", util::Json(why));
      send_or_drop(conn_id, err, now);
      std::lock_guard lock(stats_mutex);
      ++stats.requests_failed;
    };
    core::ExperimentSpec spec;
    std::size_t points = 0;
    try {
      spec = core::ExperimentSpec::from_json(frame.at("spec"));
      spec.validate();
      if (spec.shard.policy != core::ShardSpec::Policy::All) {
        throw std::invalid_argument(
            "fleet requests must cover the whole grid (shard.policy "
            "'all'); the coordinator plans its own shards");
      }
      points = spec.grid().num_points();
    } catch (const std::exception& e) {
      reject(e.what());
      return;
    }
    {
      std::lock_guard lock(stats_mutex);
      ++stats.requests;
    }

    // Plan the split: pilot-cost-balanced when a simulation backend
    // makes per-point cost uneven, plain contiguous otherwise.
    const std::size_t workers = std::max<std::size_t>(1, table.num_workers());
    const std::size_t desired = std::clamp<std::size_t>(
        workers * options.shards_per_worker, 1,
        std::min(points, options.max_shards));
    std::vector<core::ShardRange> ranges;
    std::vector<double> weights;
    try {
      if (spec.wants(core::BackendKind::Des) && desired > 1) {
        const core::ShardPlan plan = core::ShardPlan::by_pilot_cost(
            spec.grid(), spec.base, desired, spec.mc,
            spec.shard.pilot_replications);
        ranges = plan.ranges();
        weights = plan.weights();
      } else {
        ranges = core::ShardPlan::contiguous(points, desired).ranges();
      }
    } catch (const std::exception& e) {
      reject(e.what());
      return;
    }

    const std::string tag = "q" + std::to_string(next_request_serial++);
    table.add_shards(tag, ranges, weights);
    Request request;
    request.client_id = client_id;
    request.conn = conn_id;
    request.spec = std::move(spec);
    requests.emplace(tag, std::move(request));
  }

  void handle_result(const util::Json& frame, double now) {
    const std::string worker = frame.at("worker").as_string();
    const std::uint64_t shard_id = frame.at("shard").as_u64();
    const std::string tag = frame.at("request").as_string();
    core::ExperimentResult result;
    try {
      result = core::ExperimentResult::from_json(frame.at("result"));
    } catch (const std::exception& e) {
      table.fail_shard(shard_id, worker,
                       std::string("unparseable result: ") + e.what(),
                       now);
      return;
    }
    const CompletionOutcome outcome = table.complete(
        shard_id, worker, result.canonical_json().dump_compact(), now);
    auto request_it = requests.find(tag);
    switch (outcome) {
      case CompletionOutcome::Accepted: {
        if (request_it != requests.end()) {
          request_it->second.parts.emplace(shard_id, std::move(result));
        }
        auto orphan = orphaned_at.find(shard_id);
        if (orphan != orphaned_at.end()) {
          const double recovery_s = now - orphan->second;
          orphaned_at.erase(orphan);
          std::lock_guard lock(stats_mutex);
          ++stats.recoveries;
          stats.total_recovery_s += recovery_s;
          stats.max_recovery_s =
              std::max(stats.max_recovery_s, recovery_s);
        }
        break;
      }
      case CompletionOutcome::DuplicateMismatch:
        if (request_it != requests.end()) {
          request_it->second.failed = true;
          request_it->second.failure =
              "determinism violation: shard " + std::to_string(shard_id) +
              " completed twice with different canonical payloads "
              "(second from worker '" + worker + "')";
        }
        break;
      case CompletionOutcome::DuplicateVerified:
      case CompletionOutcome::SupersededLate:
      case CompletionOutcome::Unknown:
        break;  // dropped by design
    }
  }

  void handle_closed(std::uint64_t conn_id, const std::string& error,
                     bool protocol, double now) {
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    if (protocol) {
      std::lock_guard lock(stats_mutex);
      ++stats.protocol_errors;
    }
    Conn conn = std::move(it->second);
    conns.erase(it);
    // shutdown(), not close(): the reader thread may still be parked in
    // poll/recv on this descriptor (protocol-error path), and closing
    // the fd under it would let a concurrent accept recycle the number.
    // The fd itself dies with the last shared_ptr, after the reader
    // exits.
    conn.connection->shutdown();
    if (conn.reader.joinable()) retired.push_back(std::move(conn.reader));
    if (conn.role == Conn::Role::Worker &&
        worker_conns.find(conn.worker) != worker_conns.end() &&
        worker_conns.at(conn.worker) == conn_id) {
      worker_conns.erase(conn.worker);
      absorb(table.worker_leave(conn.worker, now), now);
    } else if (conn.role == Conn::Role::Client) {
      // Nobody left to answer: abandon this client's open requests.
      for (auto request_it = requests.begin();
           request_it != requests.end();) {
        if (request_it->second.conn == conn_id) {
          forget_tag_orphans(request_it->first);
          table.remove_tag(request_it->first, now);
          request_it = requests.erase(request_it);
        } else {
          ++request_it;
        }
      }
    }
    (void)error;
  }

  void forget_tag_orphans(const std::string& tag) {
    for (const ShardInfo& shard : table.tag_shards(tag)) {
      orphaned_at.erase(shard.id);
    }
  }

  void absorb(const TickReport& report, double now) {
    for (const std::uint64_t id : report.reassigned) {
      orphaned_at.emplace(id, now);
    }
    for (const std::uint64_t id : report.quarantined) {
      orphaned_at.erase(id);
    }
  }

  // --- Periodic work: liveness, dispatch, completion. ------------------

  void handle_tick(double now) {
    absorb(table.tick(now), now);

    for (const Assignment& a : table.dispatch(now)) {
      auto worker_it = worker_conns.find(a.worker);
      auto request_it = requests.find(a.tag);
      if (worker_it == worker_conns.end() ||
          request_it == requests.end()) {
        continue;
      }
      util::Json lease = util::Json::object();
      lease.set("type", util::Json("lease"));
      lease.set("request", util::Json(a.tag));
      lease.set("shard", util::Json(static_cast<double>(a.shard)));
      lease.set("attempt", util::Json(static_cast<double>(a.attempt)));
      lease.set("deadline_s", util::Json::number(a.deadline_s));
      lease.set("spec",
                lease_spec(request_it->second.spec, a.range, a.shard)
                    .to_json());
      send_or_drop(worker_it->second, lease, now);
    }

    std::vector<std::string> done;
    for (const auto& [tag, request] : requests) {
      if (table.tag_terminal(tag)) done.push_back(tag);
    }
    for (const std::string& tag : done) finalize(tag, now);

    std::lock_guard lock(stats_mutex);
    stats.lease = table.counters();
    stats.workers_seen = worker_names_seen.size();
  }

  void finalize(const std::string& tag, double now) {
    auto request_it = requests.find(tag);
    // An earlier finalize this tick may have hit a dead client socket;
    // handle_closed then dropped ALL of that client's requests —
    // including siblings already collected in the caller's done list.
    if (request_it == requests.end()) return;
    Request request = std::move(request_it->second);
    requests.erase(request_it);
    const std::vector<ShardInfo> shards = table.tag_shards(tag);
    forget_tag_orphans(tag);
    table.remove_tag(tag, now);

    const auto fail = [&](const std::string& why) {
      util::Json err = util::Json::object();
      err.set("type", util::Json("error"));
      err.set("id", util::Json(request.client_id));
      err.set("error", util::Json(why));
      send_or_drop(request.conn, err, now);
      std::lock_guard lock(stats_mutex);
      ++stats.requests_failed;
    };
    if (request.failed) {
      fail(request.failure);
      return;
    }

    std::vector<core::ExperimentResult> parts;
    util::Json gaps = util::Json::array();
    for (const ShardInfo& shard : shards) {
      switch (shard.state) {
        case ShardState::Done: {
          auto part = request.parts.find(shard.id);
          if (part == request.parts.end()) {
            fail("internal error: shard " + std::to_string(shard.id) +
                 " is done but its payload is missing");
            return;
          }
          parts.push_back(std::move(part->second));
          break;
        }
        case ShardState::Quarantined: {
          parts.push_back(
              filler_part(request.spec, shard.range, shard.id));
          util::Json gap = util::Json::object();
          gap.set("shard",
                  util::Json(static_cast<double>(shard.id)));
          gap.set("range", range_json(shard.range));
          gap.set("attempts",
                  util::Json(static_cast<double>(shard.attempts)));
          gap.set("error", util::Json(shard.last_error));
          gaps.push_back(std::move(gap));
          break;
        }
        case ShardState::Superseded:
          break;  // replaced by its children
        case ShardState::Pending:
        case ShardState::Leased:
          fail("internal error: finalize with live shard " +
               std::to_string(shard.id));
          return;
      }
    }

    core::ExperimentResult merged;
    try {
      merged = core::merge_experiment_results(parts);
    } catch (const std::exception& e) {
      fail(std::string("merge failed: ") + e.what());
      return;
    }
    // Provenance of the merged whole matches a single-process run.
    merged.num_shards = 1;
    merged.shard_index = 0;
    merged.shard_policy = to_string(core::ShardSpec::Policy::All);

    const bool complete = gaps.size() == 0;
    util::Json response = util::Json::object();
    response.set("type", util::Json("response"));
    response.set("id", util::Json(request.client_id));
    response.set("complete", util::Json(complete));
    response.set("gaps", std::move(gaps));
    {
      std::lock_guard lock(stats_mutex);
      stats.lease = table.counters();
      util::Json s = util::Json::object();
      s.set("dispatched",
            util::Json(static_cast<double>(stats.lease.dispatched)));
      s.set("reassignments",
            util::Json(static_cast<double>(stats.lease.reassignments)));
      s.set("splits",
            util::Json(static_cast<double>(stats.lease.splits)));
      s.set("duplicates_verified",
            util::Json(
                static_cast<double>(stats.lease.duplicates_verified)));
      s.set("quarantined",
            util::Json(static_cast<double>(stats.lease.quarantined)));
      s.set("worker_deaths",
            util::Json(static_cast<double>(stats.lease.worker_deaths)));
      response.set("stats", std::move(s));
      if (complete) {
        ++stats.responses_complete;
      } else {
        ++stats.responses_with_gaps;
      }
    }
    response.set("result", merged.to_json());
    send_or_drop(request.conn, response, now);
  }

  // --- Lifecycle. -------------------------------------------------------

  /// Joins the acceptor thread on every exit path — an exception
  /// escaping the event loop must not leave it joinable, or the
  /// unwinding std::thread destructor calls std::terminate.
  struct AcceptorGuard {
    std::atomic<bool>& stop;
    std::thread thread;
    ~AcceptorGuard() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  };

  void serve(Listener& listener, const volatile std::sig_atomic_t* flag) {
    AcceptorGuard acceptor{stop, std::thread([this, &listener] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<Connection> connection;
        try {
          connection = listener.accept(options.poll_timeout_s);
        } catch (const std::exception&) {
          return;  // listener torn down
        }
        if (!connection) continue;
        Event event;
        event.kind = Event::Kind::Accepted;
        event.connection = std::move(connection);
        enqueue(std::move(event));
      }
    })};

    while (!stop.load(std::memory_order_relaxed) &&
           !(flag != nullptr && *flag != 0)) {
      double now = monotonic_now();
      const double next = table.next_event_time(now);
      const double timeout = std::clamp(next - now, 0.0,
                                        options.tick_interval_s);
      Event event;
      if (dequeue(event, timeout)) {
        now = monotonic_now();
        switch (event.kind) {
          case Event::Kind::Accepted: {
            const std::uint64_t id = next_conn_id++;
            conns[id].connection = event.connection;
            start_reader(id, event.connection);
            break;
          }
          case Event::Kind::Frame:
            try {
              handle_frame(event.conn, event.frame, now);
            } catch (const std::exception& e) {
              handle_closed(event.conn, e.what(), /*protocol=*/true, now);
            }
            break;
          case Event::Kind::Closed:
            handle_closed(event.conn, event.error, event.protocol, now);
            break;
        }
      }
      handle_tick(monotonic_now());
    }

    // Drain: answer what we cannot finish, wave the workers off, then
    // tear every thread down before returning.
    stop.store(true);
    const double now = monotonic_now();
    util::Json shutdown = util::Json::object();
    shutdown.set("type", util::Json("shutdown"));
    for (auto& [id, conn] : conns) {
      if (conn.role == Conn::Role::Worker) {
        try {
          conn.connection->send(shutdown);
        } catch (const std::exception&) {
        }
      }
    }
    for (auto& [tag, request] : requests) {
      util::Json err = util::Json::object();
      err.set("type", util::Json("error"));
      err.set("id", util::Json(request.client_id));
      err.set("error", util::Json("coordinator draining"));
      try {
        auto it = conns.find(request.conn);
        if (it != conns.end()) it->second.connection->send(err);
      } catch (const std::exception&) {
      }
      std::lock_guard lock(stats_mutex);
      ++stats.requests_failed;
    }
    requests.clear();
    // Wake every reader with shutdown(), join them, and only then drop
    // the connections (closing the fds) — never close an fd a reader
    // may still be polling.
    for (auto& [id, conn] : conns) conn.connection->shutdown();
    for (auto& [id, conn] : conns) {
      if (conn.reader.joinable()) conn.reader.join();
    }
    conns.clear();
    for (std::thread& reader : retired) {
      if (reader.joinable()) reader.join();
    }
    retired.clear();
    {
      std::lock_guard lock(stats_mutex);
      stats.lease = table.counters();
      stats.workers_seen = worker_names_seen.size();
    }
    (void)now;
  }
};

Coordinator::Coordinator(CoordinatorOptions options)
    : impl_(new Impl(options)) {}

Coordinator::~Coordinator() = default;

void Coordinator::serve(Listener& listener,
                        const volatile std::sig_atomic_t* stop) {
  impl_->serve(listener, stop);
}

void Coordinator::request_stop() { impl_->stop.store(true); }

CoordinatorStats Coordinator::stats() const {
  std::lock_guard lock(impl_->stats_mutex);
  return impl_->stats;
}

}  // namespace midas::svc
