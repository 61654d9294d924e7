#include "manet/mobility.h"

#include <cmath>
#include <stdexcept>

namespace midas::manet {

RandomWaypointModel::RandomWaypointModel(std::size_t num_nodes,
                                         const MobilityParams& params,
                                         std::uint64_t seed)
    : params_(params), rng_(seed) {
  // Negated comparisons, so a NaN fails them too; the pause bound keeps
  // uniform_real_distribution's a <= b precondition.
  if (!(params.field_radius_m > 0.0) || !(params.speed_min_mps > 0.0) ||
      !(params.speed_max_mps >= params.speed_min_mps) ||
      !(params.pause_max_s >= 0.0)) {
    throw std::invalid_argument("RandomWaypointModel: bad parameters");
  }
  positions_.resize(num_nodes);
  nodes_.resize(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    positions_[i] = random_point_in_disc();
    assign_new_waypoint(i);
  }
}

Vec2 RandomWaypointModel::random_point_in_disc() {
  // Inverse-CDF sampling: radius ∝ sqrt(U) gives uniform area density.
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const double r = params_.field_radius_m * std::sqrt(uni(rng_));
  const double theta = 2.0 * M_PI * uni(rng_);
  return {r * std::cos(theta), r * std::sin(theta)};
}

void RandomWaypointModel::assign_new_waypoint(std::size_t i) {
  std::uniform_real_distribution<double> speed(params_.speed_min_mps,
                                               params_.speed_max_mps);
  std::uniform_real_distribution<double> pause(0.0, params_.pause_max_s);
  nodes_[i].waypoint = random_point_in_disc();
  nodes_[i].speed = speed(rng_);
  nodes_[i].pause_left = pause(rng_);
}

void RandomWaypointModel::step(double dt) {
  if (dt <= 0.0) throw std::invalid_argument("step: dt must be positive");
  elapsed_ += dt;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    double remaining = dt;
    while (remaining > 1e-12) {
      auto& n = nodes_[i];
      auto& pos = positions_[i];
      const Vec2 delta = n.waypoint - pos;
      const double dist = delta.norm();
      if (dist < 1e-9) {
        // Arrived: burn pause time, then pick the next leg.
        if (n.pause_left > remaining) {
          n.pause_left -= remaining;
          remaining = 0.0;
        } else {
          remaining -= n.pause_left;
          assign_new_waypoint(i);
        }
        continue;
      }
      const double travel_time = dist / n.speed;
      if (travel_time > remaining) {
        const double step_len = n.speed * remaining;
        pos = pos + delta * (step_len / dist);
        travelled_ += step_len;
        remaining = 0.0;
      } else {
        pos = n.waypoint;
        travelled_ += dist;
        remaining -= travel_time;
      }
    }
  }
}

double RandomWaypointModel::mean_speed() const {
  const double per_node_time =
      elapsed_ * static_cast<double>(nodes_.size());
  return per_node_time > 0.0 ? travelled_ / per_node_time : 0.0;
}

}  // namespace midas::manet
