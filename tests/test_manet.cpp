// MANET substrate: random-waypoint mobility invariants, unit-disc
// connectivity/topology statistics (the bit-row kernel against the
// adjacency-list oracle, bit for bit), and the partition/merge
// birth–death estimation the paper's T_PAR/T_MER rates come from.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "manet/mobility.h"
#include "manet/partition_estimator.h"
#include "manet/topology.h"
#include "oracle/topology.h"

namespace {

using namespace midas::manet;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Same bits, so NaN == NaN and -0.0 != 0.0.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The kernel answers exactly as the adjacency-list oracle: components,
/// labels, sizes, every source's hop distances and every stats() field.
void expect_matches_oracle(const std::vector<Vec2>& pos, double range_m) {
  SCOPED_TRACE(testing::Message() << "N=" << pos.size() << " range="
                                  << range_m);
  const ConnectivityGraph g(pos, range_m);
  const oracle::ConnectivityGraph ref(pos, range_m);
  EXPECT_EQ(g.size(), pos.size());
  EXPECT_EQ(g.num_components(), ref.num_components());
  EXPECT_EQ(g.component_labels(), ref.component_labels());
  EXPECT_EQ(g.component_sizes(), ref.component_sizes());
  for (std::uint32_t s = 0; s < pos.size(); ++s) {
    ASSERT_EQ(g.hop_distances(s), ref.hop_distances(s)) << "source " << s;
  }
  const TopologyStats a = g.stats();
  const TopologyStats b = ref.stats();
  EXPECT_EQ(a.num_components, b.num_components);
  EXPECT_EQ(a.largest_component, b.largest_component);
  EXPECT_TRUE(same_bits(a.mean_degree, b.mean_degree))
      << a.mean_degree << " vs " << b.mean_degree;
  EXPECT_TRUE(same_bits(a.mean_hops, b.mean_hops))
      << a.mean_hops << " vs " << b.mean_hops;
  EXPECT_TRUE(same_bits(a.connectivity, b.connectivity))
      << a.connectivity << " vs " << b.connectivity;
}

TEST(Mobility, NodesStayInsideTheDisc) {
  MobilityParams p;
  p.field_radius_m = 200.0;
  RandomWaypointModel model(50, p, 123);
  for (int step = 0; step < 200; ++step) {
    model.step(1.0);
    for (const auto& pos : model.positions()) {
      EXPECT_LE(pos.norm(), p.field_radius_m + 1e-6);
    }
  }
}

TEST(Mobility, DeterministicUnderSeed) {
  const MobilityParams p;
  RandomWaypointModel a(10, p, 77);
  RandomWaypointModel b(10, p, 77);
  for (int step = 0; step < 50; ++step) {
    a.step(1.0);
    b.step(1.0);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.positions()[i].x, b.positions()[i].x);
    EXPECT_DOUBLE_EQ(a.positions()[i].y, b.positions()[i].y);
  }
}

TEST(Mobility, MeanSpeedWithinConfiguredBand) {
  MobilityParams p;
  p.speed_min_mps = 2.0;
  p.speed_max_mps = 6.0;
  p.pause_max_s = 0.0;  // no pauses: travel speed in [2, 6]
  RandomWaypointModel model(40, p, 5);
  for (int step = 0; step < 500; ++step) model.step(1.0);
  EXPECT_GT(model.mean_speed(), p.speed_min_mps * 0.8);
  EXPECT_LT(model.mean_speed(), p.speed_max_mps);
}

TEST(Mobility, PausesReduceMeanSpeed) {
  MobilityParams moving;
  moving.pause_max_s = 0.0;
  MobilityParams pausing = moving;
  pausing.pause_max_s = 30.0;
  RandomWaypointModel a(30, moving, 9);
  RandomWaypointModel b(30, pausing, 9);
  for (int step = 0; step < 400; ++step) {
    a.step(1.0);
    b.step(1.0);
  }
  EXPECT_GT(a.mean_speed(), b.mean_speed());
}

TEST(Mobility, InvalidParametersThrow) {
  MobilityParams bad;
  bad.field_radius_m = -1;
  EXPECT_THROW(RandomWaypointModel(5, bad, 1), std::invalid_argument);
  MobilityParams bad2;
  bad2.speed_min_mps = 5.0;
  bad2.speed_max_mps = 1.0;
  EXPECT_THROW(RandomWaypointModel(5, bad2, 1), std::invalid_argument);
  // NaN fails every check, and a negative pause bound would break
  // uniform_real_distribution's a <= b.
  for (auto mutate : {+[](MobilityParams& p) { p.field_radius_m = kNaN; },
                      +[](MobilityParams& p) { p.speed_min_mps = kNaN; },
                      +[](MobilityParams& p) { p.speed_max_mps = kNaN; },
                      +[](MobilityParams& p) { p.pause_max_s = -1.0; },
                      +[](MobilityParams& p) { p.pause_max_s = kNaN; }}) {
    MobilityParams p;
    mutate(p);
    EXPECT_THROW(RandomWaypointModel(5, p, 1), std::invalid_argument);
  }
  RandomWaypointModel ok(5, MobilityParams{}, 1);
  EXPECT_THROW(ok.step(0.0), std::invalid_argument);
}

TEST(Topology, LineGraphComponentsAndHops) {
  // Three nodes in a line, spaced 10 apart, range 12: a path graph.
  const std::vector<Vec2> pos{{0, 0}, {10, 0}, {20, 0}};
  const ConnectivityGraph g(pos, 12.0);
  EXPECT_EQ(g.num_components(), 1u);
  const auto d = g.hop_distances(0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], 2u);
}

TEST(Topology, DisconnectedComponentsAreLabelled) {
  const std::vector<Vec2> pos{{0, 0}, {5, 0}, {100, 0}, {105, 0}};
  const ConnectivityGraph g(pos, 10.0);
  EXPECT_EQ(g.num_components(), 2u);
  const auto sizes = g.component_sizes();
  EXPECT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0] + sizes[1], 4u);
  const auto labels = g.component_labels();
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
  // Unreachable pairs report UINT32_MAX.
  EXPECT_EQ(g.hop_distances(0)[2], UINT32_MAX);
}

TEST(Topology, CompleteGraphStats) {
  const std::vector<Vec2> pos{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  const ConnectivityGraph g(pos, 10.0);
  const auto st = g.stats();
  EXPECT_EQ(st.num_components, 1u);
  EXPECT_EQ(st.largest_component, 4u);
  EXPECT_DOUBLE_EQ(st.mean_degree, 3.0);
  EXPECT_DOUBLE_EQ(st.mean_hops, 1.0);
  EXPECT_DOUBLE_EQ(st.connectivity, 1.0);
}

TEST(Topology, ZeroRangeIsFullyDisconnected) {
  const std::vector<Vec2> pos{{0, 0}, {1, 0}, {2, 0}};
  const ConnectivityGraph g(pos, 0.5);
  EXPECT_EQ(g.num_components(), 3u);
  const auto st = g.stats();
  EXPECT_DOUBLE_EQ(st.mean_degree, 0.0);
  EXPECT_DOUBLE_EQ(st.connectivity, 0.0);
}

TEST(Topology, MatchesListOracleOnRandomWaypointSnapshots) {
  // N spans one-word rows, the 64-bit word boundary and multi-word rows;
  // the ranges run from isolated nodes to a complete graph, plus the
  // negative and NaN ranges that take distance_to for every pair.
  MobilityParams mob;
  mob.field_radius_m = 300.0;
  for (std::size_t n : {2, 3, 24, 63, 64, 65, 100, 128, 129, 200}) {
    RandomWaypointModel model(n, mob, 0xB175 + n);
    for (int snapshot = 0; snapshot < 2; ++snapshot) {
      model.step(25.0);
      for (double r : {0.0, 30.0, 160.0, 250.0, 1000.0, -1.0, kNaN}) {
        expect_matches_oracle(model.positions(), r);
      }
    }
  }
}

TEST(Topology, MatchesListOracleAtTheRangeBoundary) {
  // A pair exactly at the range, and one ulp either side, lands inside
  // the squared-distance band, where distance_to decides.
  MobilityParams mob;
  mob.field_radius_m = 300.0;
  RandomWaypointModel model(24, mob, 7);
  for (int snapshot = 0; snapshot < 20; ++snapshot) {
    model.step(10.0);
    const auto& pos = model.positions();
    for (std::size_t j = 1; j < 4; ++j) {
      const double r = pos[0].distance_to(pos[j]);
      for (double range : {std::nextafter(r, 0.0), r,
                           std::nextafter(r, HUGE_VAL)}) {
        expect_matches_oracle(pos, range);
      }
    }
  }
  // 3-4-5 triangle at r = 5: the hypotenuse is exactly in range.
  const std::vector<Vec2> triangle{{0, 0}, {3, 0}, {3, 4}};
  expect_matches_oracle(triangle, 5.0);
  EXPECT_EQ(ConnectivityGraph(triangle, 5.0).stats().mean_degree, 2.0);
  EXPECT_EQ(ConnectivityGraph(triangle, std::nextafter(5.0, 0.0))
                .stats()
                .mean_degree,
            4.0 / 3.0);
}

TEST(Topology, MatchesListOracleWhenRangeSquaredUnderflows) {
  // r = 1e-160: r² is subnormal, one ulp of it is ~5e-4 relative, and
  // dx² + dy² can round to the wrong side of r² for a pair at distance
  // ~r.  A grid of points 1e-161 apart puts many pairs at exactly r
  // ((6, 8) and (10, 0) offsets); a golden-angle fan around the origin
  // at radius r has pairs the squared test alone would misorder.
  constexpr double r = 1e-160;
  std::vector<Vec2> grid;
  for (int a = 0; a < 11; ++a) {
    for (int b = 0; b < 11; ++b) grid.push_back({a * 1e-161, b * 1e-161});
  }
  expect_matches_oracle(grid, r);
  std::vector<Vec2> fan{{0.0, 0.0}};
  for (int k = 1; k < 128; ++k) {
    const double angle = 2.399963229728653 * k;
    fan.push_back({r * std::cos(angle), r * std::sin(angle)});
  }
  expect_matches_oracle(fan, r);
}

TEST(PartitionEstimator, HundredNodeRatesArePinned) {
  // Two-word adjacency rows; the doubles are the adjacency-list kernel's.
  MobilityParams mob;
  PartitionSimOptions opts;
  opts.sim_time_s = 600.0;
  opts.radio_range_m = 120.0;
  opts.seed = 2024;
  const auto est = estimate_partition_rates(100, mob, opts);
  EXPECT_EQ(est.max_groups_seen, 7u);
  EXPECT_EQ(est.partition_rate,
            (std::vector<double>{0, 0.20388349514563106, 0.16022099447513813,
                                 0.1099476439790576, 0.097826086956521743,
                                 0.034482758620689655, 0.33333333333333331,
                                 0}));
  EXPECT_EQ(est.merge_rate,
            (std::vector<double>{0, 0, 0.088397790055248615,
                                 0.17277486910994763, 0.25,
                                 0.27586206896551724, 0.66666666666666663,
                                 1}));
  EXPECT_EQ(est.occupancy,
            (std::vector<double>{0, 0.17166666666666666, 0.30166666666666669,
                                 0.31833333333333336, 0.15333333333333332,
                                 0.048333333333333332, 0.0050000000000000001,
                                 0.0016666666666666668}));
  EXPECT_EQ(est.mean_hops, 4.65852378746012);
  EXPECT_EQ(est.mean_degree, 7.1675000000000004);
  EXPECT_EQ(est.mean_components, 2.8333333333333335);
}

TEST(PartitionEstimator, OccupancySumsToOneAndRatesNonNegative) {
  MobilityParams mob;
  mob.field_radius_m = 300.0;
  PartitionSimOptions opts;
  opts.sim_time_s = 200.0;
  opts.radio_range_m = 120.0;
  const auto est = estimate_partition_rates(30, mob, opts);

  double occ = 0.0;
  for (double o : est.occupancy) occ += o;
  EXPECT_NEAR(occ, 1.0, 1e-9);
  for (double r : est.partition_rate) EXPECT_GE(r, 0.0);
  for (double r : est.merge_rate) EXPECT_GE(r, 0.0);
  EXPECT_GE(est.mean_hops, 0.0);
  EXPECT_GT(est.mean_degree, 0.0);
}

TEST(PartitionEstimator, HugeRangeNeverPartitions) {
  MobilityParams mob;
  mob.field_radius_m = 100.0;
  PartitionSimOptions opts;
  opts.sim_time_s = 100.0;
  opts.radio_range_m = 1000.0;  // everyone hears everyone
  const auto est = estimate_partition_rates(20, mob, opts);
  EXPECT_EQ(est.max_groups_seen, 1u);
  EXPECT_DOUBLE_EQ(est.partition_rate_at(1), 0.0);
  EXPECT_NEAR(est.occupancy[1], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(est.mean_hops, 1.0);
}

TEST(PartitionEstimator, RateLookupsClampOutOfRange) {
  PartitionEstimate est;
  est.partition_rate = {0.0, 0.5};
  est.merge_rate = {0.0, 0.0, 0.25};
  EXPECT_DOUBLE_EQ(est.partition_rate_at(0), 0.0);
  EXPECT_DOUBLE_EQ(est.partition_rate_at(1), 0.5);
  EXPECT_DOUBLE_EQ(est.partition_rate_at(99), 0.0);
  EXPECT_DOUBLE_EQ(est.merge_rate_at(1), 0.0);  // can't merge below 1
  EXPECT_DOUBLE_EQ(est.merge_rate_at(2), 0.25);
}

TEST(PartitionEstimator, DeterministicUnderSeed) {
  MobilityParams mob;
  PartitionSimOptions opts;
  opts.sim_time_s = 50.0;
  opts.seed = 42;
  const auto a = estimate_partition_rates(15, mob, opts);
  const auto b = estimate_partition_rates(15, mob, opts);
  EXPECT_DOUBLE_EQ(a.mean_hops, b.mean_hops);
  EXPECT_EQ(a.max_groups_seen, b.max_groups_seen);
}

}  // namespace
