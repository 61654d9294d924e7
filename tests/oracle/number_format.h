// The printf number formatter util::Json's encoder used before it
// moved to std::to_chars.  Test oracle only: the encoder's output for
// every finite double must be these bytes.
#pragma once

#include <string>

namespace midas::util::oracle {

/// "%.0f" for integral doubles below 2^53 in magnitude, "%.17g" for
/// every other finite double.
[[nodiscard]] std::string encode_number(double v);

}  // namespace midas::util::oracle
