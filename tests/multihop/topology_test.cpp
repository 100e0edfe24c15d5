#include "multihop/topology.hpp"

#include <gtest/gtest.h>

namespace ccd {
namespace {

TEST(Topology, CliqueEveryoneAdjacent) {
  const Topology t = Topology::clique(5);
  EXPECT_EQ(t.size(), 5u);
  for (std::size_t a = 0; a < 5; ++a) {
    EXPECT_EQ(t.degree(a), 4u);
    for (std::size_t b = 0; b < 5; ++b) {
      EXPECT_EQ(t.adjacent(a, b), a != b);
    }
  }
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.diameter(), 1u);
}

TEST(Topology, IsCliqueOnlyWhenEveryPairIsAdjacent) {
  EXPECT_TRUE(Topology::clique(1).is_clique());
  EXPECT_TRUE(Topology::clique(5).is_clique());
  EXPECT_TRUE(Topology::ring(3).is_clique());  // a triangle
  EXPECT_FALSE(Topology::line(3).is_clique());
  EXPECT_FALSE(Topology::grid_n(4).is_clique());
}

TEST(Topology, LineDistancesAndDiameter) {
  const Topology t = Topology::line(10);
  EXPECT_EQ(t.distance(0, 9), 9u);
  EXPECT_EQ(t.distance(3, 7), 4u);
  EXPECT_EQ(t.diameter(), 9u);
  EXPECT_EQ(t.degree(0), 1u);
  EXPECT_EQ(t.degree(5), 2u);
  EXPECT_TRUE(t.connected());
}

TEST(Topology, GridStructure) {
  const Topology t = Topology::grid(4, 3);
  EXPECT_EQ(t.size(), 12u);
  // Corner degree 2, edge degree 3, interior degree 4.
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(1), 3u);
  EXPECT_EQ(t.degree(5), 4u);
  // Manhattan distances.
  EXPECT_EQ(t.distance(0, 11), 3u + 2u);
  EXPECT_EQ(t.diameter(), 5u);
}

TEST(Topology, RingStructure) {
  const Topology t = Topology::ring(8);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.diameter(), 4u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(t.degree(i), 2u);
  EXPECT_TRUE(t.adjacent(7, 0));
  EXPECT_EQ(t.distance(0, 5), 3u);  // the wrap-around is shorter
}

TEST(Topology, RingDegeneratesToLineBelowThree) {
  EXPECT_EQ(Topology::ring(2).diameter(), 1u);
  EXPECT_EQ(Topology::ring(1).diameter(), 0u);
  EXPECT_TRUE(Topology::ring(0).connected());
}

TEST(Topology, GridNCoversExactlyNNodes) {
  for (std::size_t n : {1u, 2u, 5u, 8u, 9u, 12u, 17u, 36u}) {
    const Topology t = Topology::grid_n(n);
    EXPECT_EQ(t.size(), n) << n;
    EXPECT_TRUE(t.connected()) << n;
  }
  // A perfect square matches the rectangular generator.
  const Topology square = Topology::grid_n(9);
  const Topology rect = Topology::grid(3, 3);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(square.neighbors(i), rect.neighbors(i));
  }
  // Partial last row: n=8, width 3 -> rows {0,1,2},{3,4,5},{6,7}.
  const Topology partial = Topology::grid_n(8);
  EXPECT_TRUE(partial.adjacent(6, 7));
  EXPECT_TRUE(partial.adjacent(4, 7));
  EXPECT_FALSE(partial.adjacent(5, 7));
  EXPECT_EQ(partial.degree(7), 2u);
}

TEST(Topology, SingletonAndEmpty) {
  const Topology one = Topology::line(1);
  EXPECT_TRUE(one.connected());
  EXPECT_EQ(one.diameter(), 0u);
  const Topology two = Topology::line(2);
  EXPECT_EQ(two.diameter(), 1u);
}

TEST(Topology, DisconnectedGeometricDetected) {
  // Tiny radius: n isolated points.
  const Topology t = Topology::random_geometric(20, 1e-6, 3);
  EXPECT_FALSE(t.connected());
  EXPECT_EQ(t.diameter(), Topology::kUnreachable);
  EXPECT_EQ(t.distance(0, 1), Topology::kUnreachable);
}

TEST(Topology, DenseGeometricConnected) {
  // Radius ~ full square: a clique.
  const Topology t = Topology::random_geometric(20, 2.0, 3);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.diameter(), 1u);
  EXPECT_EQ(t.max_degree(), 19u);
}

TEST(Topology, GeometricDeterministicPerSeed) {
  const Topology a = Topology::random_geometric(30, 0.3, 7);
  const Topology b = Topology::random_geometric(30, 0.3, 7);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a.neighbors(i), b.neighbors(i));
  }
}

TEST(Topology, EccentricityConsistentWithDiameter) {
  const Topology t = Topology::grid(5, 5);
  std::uint32_t worst = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    worst = std::max(worst, t.eccentricity(i));
  }
  EXPECT_EQ(worst, t.diameter());
  // Center of the grid has the smallest eccentricity.
  EXPECT_EQ(t.eccentricity(12), 4u);
  EXPECT_EQ(t.eccentricity(0), 8u);
}

TEST(Topology, ArticulationPointsOnStandardShapes) {
  // Line: every interior node is a cut vertex (the Omega(D) worst case is
  // also the partition worst case).
  const Topology line = Topology::line(5);
  EXPECT_EQ(line.articulation_points(),
            (std::vector<std::uint32_t>{1, 2, 3}));
  // Ring and clique: 2-connected, no cut vertex anywhere.
  EXPECT_TRUE(Topology::ring(6).articulation_points().empty());
  EXPECT_TRUE(Topology::clique(5).articulation_points().empty());
  // 2xN grid: 2-connected as well.
  EXPECT_TRUE(Topology::grid(2, 4).articulation_points().empty());
  // Degenerate sizes.
  EXPECT_TRUE(Topology::line(1).articulation_points().empty());
  EXPECT_TRUE(Topology::line(2).articulation_points().empty());
}

TEST(Topology, LargestComponentWithoutRanksCutDamage) {
  const Topology line = Topology::line(5);
  // Removing node 1 leaves {0} and {2,3,4}; removing the middle node 2
  // leaves two pairs -- the most balanced (worst) partition.
  EXPECT_EQ(line.largest_component_without(1), 3u);
  EXPECT_EQ(line.largest_component_without(2), 2u);
  // Removing a ring node leaves one path of n-1.
  EXPECT_EQ(Topology::ring(6).largest_component_without(0), 5u);
  EXPECT_EQ(Topology::line(1).largest_component_without(0), 0u);
}

}  // namespace
}  // namespace ccd
