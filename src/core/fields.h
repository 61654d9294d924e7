// Field lists — one declaration per wire field.  Every struct that
// crosses a process boundary as JSON (the experiment spec, its Params,
// the result payloads) lists its fields ONCE, in JSON key order:
//
//   template <class Io, Of<T> P> void describe(Io& io, P& value);
//
// Walkers read that list three ways — the JSON encoder and the
// path-naming decoder (core/experiment.cpp) and the range Checker below
// — so which fields exist, under which key, in which order and with
// which range is decided in one place.  A walker offers:
//   io.field(key, v [, check])  scalar, vector or nested struct (walked
//                               through its own describe); `check` is
//                               the field's range
//   io.field(key, e, parse)     enum (or vector of enums) as its name
//   io.optional(key, on, v)     written only when `on`; reading sets `on`
//   io.group(key, fn)           a JSON object whose fields fn(io) lists
//   io.tag(key, text)           a constant string (a format name)
//   io.derive(v, fn)            fn(v) rebuilds derived members on read
// Walkers are plain templates (no per-field std::function or virtual
// call) and build path strings only when they raise an error.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace midas::core {

/// `P` is `T` or `const T`: one list serves the writers and the reader.
template <class P, class T>
concept Of = std::same_as<std::remove_const_t<P>, T>;

template <class T>
inline constexpr bool is_vector_v = false;
template <class T, class A>
inline constexpr bool is_vector_v<std::vector<T, A>> = true;

/// A single-value range check: nullptr when `v` is admissible, else the
/// constraint text that follows the value in the error message.
using Check = const char* (*)(double);

inline const char* unit_interval(double v) {
  return (v >= 0.0 && v <= 1.0) ? nullptr : "outside [0,1]";
}
inline const char* open_unit_interval(double v) {
  return (v > 0.0 && v < 1.0) ? nullptr : "outside (0,1)";
}
inline const char* nonnegative(double v) {
  return v >= 0.0 ? nullptr : "must be non-negative";
}
inline const char* positive(double v) {
  return v > 0.0 ? nullptr : "must be positive";
}
inline const char* above_one(double v) {
  return v > 1.0 ? nullptr : "must be > 1";
}
inline const char* at_least_two(double v) {
  return v >= 2.0 ? nullptr : "must be at least 2";
}

/// Shortest text that reads back as `v`: "1.3", "4294967306", "nan".
inline std::string format_value(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// A JSON path chained on the stack while a field list is walked
/// ("spec" → "base" → "p1") and rendered as "spec.base.p1" only when an
/// error names it.  A child points at its parent, so it must not outlive
/// it.
class FieldPath {
 public:
  explicit FieldPath(const char* root = "") : key_(root) {}

  [[nodiscard]] FieldPath operator/(const char* key) const {
    return FieldPath(this, key, 0);
  }
  [[nodiscard]] FieldPath operator[](std::size_t index) const {
    return FieldPath(this, nullptr, index);
  }

  [[nodiscard]] std::string str() const {
    std::string out = parent_ != nullptr ? parent_->str() : std::string();
    if (key_ == nullptr) return out + "[" + std::to_string(index_) + "]";
    if (!out.empty()) out += '.';
    return out + key_;
  }

 private:
  FieldPath(const FieldPath* parent, const char* key, std::size_t index)
      : parent_(parent), key_(key), index_(index) {}

  const FieldPath* parent_ = nullptr;
  const char* key_;  ///< nullptr: the array element `index_`
  std::size_t index_ = 0;
};

/// Runs every field's range check and throws std::invalid_argument
/// "<prefix><path>: <value> <constraint>" at the first rejected value,
/// e.g. "ExperimentSpec: spec.base.p1: 1.3 outside [0,1]".
class Checker {
 public:
  Checker(const char* prefix, const FieldPath& path)
      : prefix_(prefix), path_(path) {}

  template <class T, class Extra = Check>
  void field(const char* key, const T& v, Extra check = nullptr) {
    if constexpr (std::is_same_v<Extra, Check>) visit(v, path_ / key, check);
  }
  template <class T>
  void optional(const char* key, bool on, const T& v) {
    if (on) field(key, v);
  }
  template <class Fn>
  void group(const char* key, Fn&& fn) {
    Checker sub(prefix_, path_ / key);
    fn(sub);
  }
  void tag(const char*, const char*) {}
  template <class T, class Fn>
  void derive(const T&, Fn&&) {}

 private:
  template <class T>
  void visit(const T& v, const FieldPath& path, Check check) {
    if constexpr (std::is_arithmetic_v<T>) {
      if (check == nullptr) return;
      if (const char* err = check(static_cast<double>(v))) {
        const std::string value = std::is_integral_v<T>
                                      ? std::to_string(v)
                                      : format_value(static_cast<double>(v));
        throw std::invalid_argument(prefix_ + path.str() + ": " + value +
                                    " " + err);
      }
    } else if constexpr (is_vector_v<T>) {
      if (std::is_arithmetic_v<typename T::value_type> && check == nullptr) {
        return;
      }
      for (std::size_t i = 0; i < v.size(); ++i) visit(v[i], path[i], check);
    } else if constexpr (std::is_class_v<T> &&
                         !std::is_same_v<T, std::string>) {
      Checker sub(prefix_, path);
      describe(sub, v);
    }
  }

  const char* prefix_;
  FieldPath path_;
};

}  // namespace midas::core
