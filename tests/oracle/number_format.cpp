#include "oracle/number_format.h"

#include <cmath>
#include <cstdio>

namespace midas::util::oracle {

std::string encode_number(double v) {
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace midas::util::oracle
