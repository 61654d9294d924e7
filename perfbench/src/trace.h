// In-memory span recorder of the traced run.  Each span has a name, a
// layer, start and end, the span that was open when it began (its
// parent) and the request it belongs to (-1 outside any request).
// Spans stay in memory until write(), which emits a Chrome trace-event
// JSON file ("X" complete events, microsecond timestamps) that Perfetto
// and chrome://tracing open.  Single-threaded by design: spans are
// recorded around calls into the library from the benchmark's thread.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start_us = 0.0;
    double end_us = -1.0;
    int parent = -1;
    int request = -1;
  };

  /// A recording tracer, or with `record` false one that records nothing:
  /// begin() and end() return at once, so a replay through it runs the
  /// traced code without the span bookkeeping.
  explicit Tracer(bool record = true);

  /// Opens a span; its parent is the innermost span still open.
  int begin(const std::string& name, const std::string& layer, int request);
  /// Closes span `id` (which must be the innermost open span) and
  /// returns its duration in seconds.
  double end(int id);

  /// Σ duration (s) of closed spans named `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;

  /// Writes the trace-event file; `metadata` lands under "otherData".
  void write(const std::string& path, const midas::util::Json& metadata) const;

 private:
  using clock = std::chrono::steady_clock;
  bool record_;
  clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: closes on scope exit; seconds() closes early and returns
/// the duration.
class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name, const std::string& layer,
         int request = -1)
      : tracer_(tracer), id_(tracer.begin(name, layer, request)) {}
  ~Scoped() {
    if (!closed_) tracer_.end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  double seconds() {
    closed_ = true;
    return tracer_.end(id_);
  }

 private:
  Tracer& tracer_;
  int id_;
  bool closed_ = false;
};

}  // namespace perfbench
