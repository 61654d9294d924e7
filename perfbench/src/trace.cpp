#include "trace.h"

#include <stdexcept>

namespace perfbench {

using midas::util::Json;

Tracer::Tracer(bool record) : record_(record), origin_(clock::now()) {}

int Tracer::begin(const std::string& name, const std::string& layer,
                  int request) {
  if (!record_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_us =
      std::chrono::duration<double, std::micro>(clock::now() - origin_)
          .count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double Tracer::end(int id) {
  if (!record_) return 0.0;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span " + std::to_string(id) +
                           " is not the innermost open span");
  }
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_us =
      std::chrono::duration<double, std::micro>(clock::now() - origin_)
          .count();
  return (span.end_us - span.start_us) * 1e-6;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name && s.end_us >= 0.0) total += (s.end_us - s.start_us);
  }
  return total * 1e-6;
}

void Tracer::write(const std::string& path, const Json& metadata) const {
  Json events = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0.0) continue;
    Json args = Json::object();
    args.set("span", Json(static_cast<double>(i)));
    args.set("parent", Json(static_cast<double>(s.parent)));
    args.set("request", Json(static_cast<double>(s.request)));
    Json e = Json::object();
    e.set("name", s.name);
    e.set("cat", s.layer);
    e.set("ph", "X");
    e.set("ts", Json(s.start_us));
    e.set("dur", Json(s.end_us - s.start_us));
    e.set("pid", Json(1.0));
    e.set("tid", Json(1.0));
    e.set("args", args);
    events.push_back(e);
  }
  Json doc = Json::object();
  doc.set("traceEvents", events);
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData", metadata);
  midas::util::write_json_file(path, doc);
}

}  // namespace perfbench
