#include "ids/functions.h"

#include <cmath>
#include <stdexcept>

namespace midas::ids {

std::string to_string(Shape s) {
  switch (s) {
    case Shape::Logarithmic:
      return "logarithmic";
    case Shape::Linear:
      return "linear";
    case Shape::Polynomial:
      return "polynomial";
  }
  return "?";
}

Shape shape_from_string(const std::string& name) {
  if (name == "log" || name == "logarithmic") return Shape::Logarithmic;
  if (name == "linear" || name == "lin") return Shape::Linear;
  if (name == "poly" || name == "polynomial") return Shape::Polynomial;
  throw std::invalid_argument(
      "unknown shape '" + name +
      "' (expected logarithmic | linear | polynomial)");
}

double shape_factor(Shape shape, double x, double p) {
  if (x < 1.0) {
    throw std::invalid_argument("shape_factor: x must be >= 1");
  }
  if (p <= 1.0) {
    throw std::invalid_argument("shape_factor: p must be > 1");
  }
  switch (shape) {
    case Shape::Logarithmic:
      // log_p(x + p − 1): equals 1 at x = 1, grows sub-linearly.
      return std::log(x + p - 1.0) / std::log(p);
    case Shape::Linear:
      return x;
    case Shape::Polynomial:
      return std::pow(x, p);
  }
  return x;
}

double attacker_rate(Shape shape, double lambda_c, double mc, double p) {
  if (lambda_c < 0.0) {
    throw std::invalid_argument("attacker_rate: negative base rate");
  }
  return lambda_c * shape_factor(shape, mc, p);
}

double detection_rate(Shape shape, double t_ids, double md, double p) {
  if (t_ids <= 0.0) {
    throw std::invalid_argument("detection_rate: TIDS must be positive");
  }
  return shape_factor(shape, md, p) / t_ids;
}

}  // namespace midas::ids
