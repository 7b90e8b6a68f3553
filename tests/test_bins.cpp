// Radial bins: linear and log spacing, edge semantics, shell volumes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/bins.hpp"

using galactos::core::BinSpacing;
using galactos::core::RadialBins;

TEST(RadialBins, LinearEdgesAndLookup) {
  RadialBins b(10.0, 60.0, 5);
  EXPECT_EQ(b.count(), 5);
  for (int i = 0; i <= 5; ++i) EXPECT_DOUBLE_EQ(b.edge(i), 10.0 + 10.0 * i);
  EXPECT_EQ(b.bin_of(9.999), -1);
  EXPECT_EQ(b.bin_of(10.0), 0);
  EXPECT_EQ(b.bin_of(19.999), 0);
  EXPECT_EQ(b.bin_of(20.0), 1);
  EXPECT_EQ(b.bin_of(59.999), 4);
  EXPECT_EQ(b.bin_of(60.0), -1);  // rmax exclusive
  EXPECT_EQ(b.bin_of(0.0), -1);
  EXPECT_DOUBLE_EQ(b.center(2), 35.0);
}

TEST(RadialBins, LogEdgesAndLookup) {
  RadialBins b(1.0, 100.0, 4, BinSpacing::kLog);
  EXPECT_NEAR(b.edge(0), 1.0, 1e-12);
  EXPECT_NEAR(b.edge(1), std::pow(10, 0.5), 1e-10);
  EXPECT_NEAR(b.edge(2), 10.0, 1e-10);
  EXPECT_NEAR(b.edge(4), 100.0, 1e-10);
  EXPECT_EQ(b.bin_of(0.5), -1);
  EXPECT_EQ(b.bin_of(1.0), 0);
  EXPECT_EQ(b.bin_of(3.0), 0);
  EXPECT_EQ(b.bin_of(4.0), 1);
  EXPECT_EQ(b.bin_of(99.9), 3);
  EXPECT_EQ(b.bin_of(100.0), -1);
}

TEST(RadialBins, LookupConsistentWithEdges) {
  // Every r strictly inside [edge(i), edge(i+1)) maps to bin i.
  for (auto spacing : {BinSpacing::kLinear, BinSpacing::kLog}) {
    RadialBins b(2.0, 200.0, 17, spacing);
    for (int i = 0; i < b.count(); ++i) {
      const double lo = b.edge(i), hi = b.edge(i + 1);
      EXPECT_EQ(b.bin_of(lo + 1e-9), i);
      EXPECT_EQ(b.bin_of(0.5 * (lo + hi)), i);
      EXPECT_EQ(b.bin_of(hi - 1e-9), i);
    }
  }
}

TEST(RadialBins, NonFiniteAndRangeEnds) {
  const double inf = std::numeric_limits<double>::infinity();
  for (auto spacing : {BinSpacing::kLinear, BinSpacing::kLog}) {
    RadialBins b(2.0, 50.0, 7, spacing);
    EXPECT_EQ(b.bin_of(std::numeric_limits<double>::quiet_NaN()), -1);
    EXPECT_EQ(b.bin_of(-std::numeric_limits<double>::quiet_NaN()), -1);
    EXPECT_EQ(b.bin_of(inf), -1);
    EXPECT_EQ(b.bin_of(-inf), -1);
    EXPECT_EQ(b.bin_of(b.rmin()), 0);  // rmin inclusive
    EXPECT_EQ(b.bin_of(std::nextafter(b.rmin(), 0.0)), -1);
    EXPECT_EQ(b.bin_of(b.rmax()), -1);  // rmax exclusive
    EXPECT_EQ(b.bin_of(std::nextafter(b.rmax(), 0.0)), b.count() - 1);
  }
}

TEST(RadialBins, InteriorEdges) {
  // Exactly representable edges and a power-of-two width: every edge
  // opens its bin exactly.
  RadialBins exact(0.0, 16.0, 8);
  for (int i = 1; i < exact.count(); ++i) {
    EXPECT_EQ(exact.bin_of(exact.edge(i)), i);
    EXPECT_EQ(exact.bin_of(std::nextafter(exact.edge(i), 0.0)), i - 1);
  }
  // In general an edge may round into either neighbor, never further, and
  // lookup stays monotone across it.
  for (auto spacing : {BinSpacing::kLinear, BinSpacing::kLog}) {
    RadialBins b(2.0, 200.0, 17, spacing);
    for (int i = 1; i < b.count(); ++i) {
      const double e = b.edge(i);
      const int at = b.bin_of(e);
      EXPECT_TRUE(at == i || at == i - 1) << b.describe() << " edge " << i;
      EXPECT_LE(b.bin_of(std::nextafter(e, 0.0)), at);
      EXPECT_GE(b.bin_of(std::nextafter(e, 1e300)), at);
      EXPECT_EQ(b.bin_of(e * (1 + 1e-12)), i);
      EXPECT_EQ(b.bin_of(e * (1 - 1e-12)), i - 1);
    }
  }
}

TEST(RadialBins, ShellVolumes) {
  RadialBins b(0.0 + 1.0, 3.0, 2);
  const double v0 = 4.0 / 3 * M_PI * (8.0 - 1.0);
  const double v1 = 4.0 / 3 * M_PI * (27.0 - 8.0);
  EXPECT_NEAR(b.shell_volume(0), v0, 1e-10);
  EXPECT_NEAR(b.shell_volume(1), v1, 1e-10);
}

TEST(RadialBins, RejectsBadConfig) {
  EXPECT_THROW(RadialBins(5.0, 5.0, 3), std::logic_error);
  EXPECT_THROW(RadialBins(-1.0, 5.0, 3), std::logic_error);
  EXPECT_THROW(RadialBins(0.0, 5.0, 3, BinSpacing::kLog), std::logic_error);
  EXPECT_THROW(RadialBins(1.0, 5.0, 0), std::logic_error);
}

TEST(RadialBins, Describe) {
  RadialBins b(1.0, 10.0, 3);
  EXPECT_NE(b.describe().find("3 linear"), std::string::npos);
  RadialBins c(1.0, 10.0, 4, BinSpacing::kLog);
  EXPECT_NE(c.describe().find("log"), std::string::npos);
}
