// Minimal JSON document model for the experiment wire format: specs and
// ExperimentResult shard slices are written by one process and read back
// by another (sweep_shard → sweep_merge, fleet workers → coordinator),
// and core::merge_experiment_results must place those slices bitwise,
// so the encoding must round-trip every double bit-for-bit — numbers
// are emitted with 17 significant digits (DBL_DECIMAL_DIG), which
// strtod maps back to the identical bits.  Non-finite values (the n < 2
// infinite CI half-widths, NaN categorical axis levels) are encoded as
// the strings "inf" / "-inf" / "nan" so the files stay strict JSON;
// to_double() decodes either form.  dump() writes a non-finite Number
// (a bare Json(double) rather than Json::number) as the same flag
// string, so every dump parses.
//
// Objects preserve insertion order (stable diffs, readable artifacts).
// This is a data-file format, not a general-purpose JSON library: the
// parser accepts exactly the documents dump() produces plus ordinary
// hand-written JSON (escapes, nesting, whitespace), and throws
// std::runtime_error with line context on malformed input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace midas::util {

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}            // NOLINT
  Json(double v) : type_(Type::Number), number_(v) {}      // NOLINT
  Json(std::string s)                                      // NOLINT
      : type_(Type::String), string_(std::move(s)) {}
  Json(const char* s) : type_(Type::String), string_(s) {}  // NOLINT

  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }

  /// A Number when `v` is finite, else the flag string "inf" / "-inf" /
  /// "nan" — the encoding to_double() reverses.
  [[nodiscard]] static Json number(double v);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }

  // --- Object access (insertion-ordered). -------------------------------
  /// Sets (or replaces) a key.  *this must be an Object.
  Json& set(const std::string& key, Json value);
  /// nullptr when absent.  *this must be an Object.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Throws std::runtime_error naming the key when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const;

  // --- Array access. ----------------------------------------------------
  Json& push_back(Json value);
  [[nodiscard]] const Json& at(std::size_t index) const;
  [[nodiscard]] const std::vector<Json>& elements() const;
  [[nodiscard]] std::size_t size() const;

  // --- Scalar access (throws std::runtime_error on type mismatch). ------
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  /// Number or non-finite flag string → double (see number()).
  [[nodiscard]] double to_double() const;
  /// Non-negative integral Number → size_t; throws on fraction/negative.
  [[nodiscard]] std::size_t as_size() const;
  [[nodiscard]] std::uint64_t as_u64() const;

  /// Serialises with 2-space indentation and a trailing newline at the
  /// top level.  Doubles round-trip bitwise (17 significant digits).
  [[nodiscard]] std::string dump() const;

  /// Single-line serialisation (no indentation, no trailing newline),
  /// same number/string encoding as dump().  Because every control
  /// character in strings is escaped, the output never contains a raw
  /// newline — this is the form the newline-delimited frame codec
  /// (util/framing.h) puts on the wire.
  [[nodiscard]] std::string dump_compact() const;

  /// Parses a complete document; trailing non-whitespace is an error.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  /// depth < 0 selects the compact single-line form.
  void dump_to(std::string& out, int depth) const;
  [[noreturn]] void type_error(const char* want) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> elements_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Writes `dump()` to `path`; throws std::runtime_error on IO failure.
void write_json_file(const std::string& path, const Json& value);

/// Reads and parses `path`; throws std::runtime_error on IO/parse errors.
[[nodiscard]] Json read_json_file(const std::string& path);

}  // namespace midas::util
