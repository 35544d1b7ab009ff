#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "pointcloud/voxel_grid.h"
#include "replay/recorder.h"
#include "sim/lidar.h"
#include "sim/scene.h"
#include "spod/clustering.h"
#include "spod/confidence.h"
#include "spod/detector.h"

namespace cooper::spod {
namespace {

// --- Clustering ---

pc::PointCloud GridPatch(double cx, double cy, double half, double step,
                         double z = 0.5) {
  pc::PointCloud cloud;
  for (double x = cx - half; x <= cx + half; x += step) {
    for (double y = cy - half; y <= cy + half; y += step) {
      cloud.Add({x, y, z}, 0.5f);
    }
  }
  return cloud;
}

TEST(ClusteringTest, SeparatedPatchesFormTwoClusters) {
  pc::PointCloud cloud = GridPatch(0, 0, 1.0, 0.25);
  cloud.Merge(GridPatch(10, 0, 1.0, 0.25));
  const auto clusters = ClusterPoints(cloud, 0.9, 5);
  ASSERT_EQ(clusters.size(), 2u);
}

TEST(ClusteringTest, NearbyPatchesMerge) {
  pc::PointCloud cloud = GridPatch(0, 0, 1.0, 0.25);
  cloud.Merge(GridPatch(2.5, 0, 1.0, 0.25));  // 0.5 m gap < radius
  const auto clusters = ClusterPoints(cloud, 0.9, 5);
  ASSERT_EQ(clusters.size(), 1u);
}

TEST(ClusteringTest, SmallClustersDiscarded) {
  pc::PointCloud cloud;
  cloud.Add({0, 0, 0}, 0.0f);
  cloud.Add({0.1, 0, 0}, 0.0f);
  cloud.Merge(GridPatch(20, 0, 1.0, 0.25));
  const auto clusters = ClusterPoints(cloud, 0.9, 5);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_GT(clusters[0].points.size(), 5u);
}

TEST(ClusteringTest, EmptyCloudYieldsNoClusters) {
  EXPECT_TRUE(ClusterPoints(pc::PointCloud{}, 0.9, 5).empty());
}

TEST(ClusteringTest, DeterministicOrder) {
  pc::PointCloud cloud = GridPatch(5, 5, 1.0, 0.3);
  cloud.Merge(GridPatch(-5, -5, 1.0, 0.3));
  const auto a = ClusterPoints(cloud, 0.9, 5);
  const auto b = ClusterPoints(cloud, 0.9, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].points.size(), b[i].points.size());
  }
}

TEST(ClusteringTest, ZDoesNotSplitClusters) {
  // BEV clustering: a tall object is one cluster.
  pc::PointCloud cloud;
  for (double z = 0.0; z < 2.0; z += 0.1) {
    cloud.Add({0, 0, z}, 0.5f);
    cloud.Add({0.3, 0.0, z}, 0.5f);
  }
  EXPECT_EQ(ClusterPoints(cloud, 0.9, 5).size(), 1u);
}

void ExpectClustersIdentical(const std::vector<Cluster>& a,
                             const std::vector<Cluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].points.size(), b[i].points.size()) << "cluster " << i;
    for (std::size_t p = 0; p < a[i].points.size(); ++p) {
      EXPECT_EQ(a[i].points[p].position.x, b[i].points[p].position.x);
      EXPECT_EQ(a[i].points[p].position.y, b[i].points[p].position.y);
      EXPECT_EQ(a[i].points[p].position.z, b[i].points[p].position.z);
      EXPECT_EQ(a[i].points[p].reflectance, b[i].points[p].reflectance);
    }
  }
}

TEST(ClusteringTest, ScratchAndThreadCountDoNotChangeClusters) {
  pc::PointCloud cloud = GridPatch(0, 0, 2.0, 0.2);
  cloud.Merge(GridPatch(12, 4, 1.5, 0.2));
  cloud.Merge(GridPatch(-9, -7, 1.0, 0.2));
  const auto base = ClusterPoints(cloud, 0.9, 5);
  ClusterScratch scratch;
  // Same scratch reused across calls, including a call on another cloud.
  ExpectClustersIdentical(base, ClusterPoints(cloud, 0.9, 5, &scratch));
  (void)ClusterPoints(GridPatch(30, 30, 3.0, 0.1), 0.5, 5, &scratch);
  ExpectClustersIdentical(base, ClusterPoints(cloud, 0.9, 5, &scratch));
}

// ClusterPoints' cell side for `merge_radius`.
double CellSide(double merge_radius) {
  return merge_radius / std::sqrt(2.0) * (1.0 - 1e-6);
}

// A cloud built to hit every edge of the cell sweep at one radius: a dense
// cell, pairs exactly r apart, points on and next to cell boundaries,
// scattered points over +-70 m (negative coordinates included), and pairs
// two cells apart whose gap is just under or just over r.
pc::PointCloud OracleCloud(double r, std::uint64_t seed) {
  Rng rng(seed);
  const double cell = CellSide(r);
  pc::PointCloud cloud;
  auto add = [&cloud, &rng](double x, double y) {
    cloud.Add({x, y, rng.Uniform(0.0, 2.0)},
              static_cast<float>(rng.Uniform()));
  };
  // 2 100 points inside cell (5, -3), with a sparser crowd around it.
  for (int i = 0; i < 2100; ++i) {
    add(cell * (5.0 + rng.Uniform(0.01, 0.99)),
        cell * (-3.0 + rng.Uniform(0.01, 0.99)));
  }
  for (int i = 0; i < 300; ++i) {
    add(cell * rng.Uniform(2.0, 9.0), cell * rng.Uniform(-6.0, 0.0));
  }
  // Scattered points over the whole +-70 m range, plus the range corners.
  for (int i = 0; i < 1500; ++i) {
    add(rng.Uniform(-70.0, 70.0), rng.Uniform(-70.0, 70.0));
  }
  for (const double x : {-70.0, 70.0}) {
    for (const double y : {-70.0, 70.0}) {
      add(x, y);
      add(x - 0.5 * r, y + 0.5 * r);
    }
  }
  // Pairs exactly r apart, along each axis and across zero.
  for (const double y : {-41.0, -7.5, 12.25}) {
    add(0.0, y);
    add(r, y);
    add(-r, y + 0.3 * r);
    add(0.0, y + 0.3 * r);
    add(y, 0.0);
    add(y, r);
  }
  for (int i = 0; i < 60; ++i) {
    const double x = rng.Uniform(-60.0, 60.0);
    const double y = rng.Uniform(-60.0, 60.0);
    add(x, y);
    add(x + r, y);
  }
  // Points on cell boundaries and one ulp either side.
  for (int i = 0; i < 200; ++i) {
    const double x = cell * static_cast<int>(rng.Uniform(-150.0, 150.0));
    const double y = cell * static_cast<int>(rng.Uniform(-150.0, 150.0));
    add(x, y);
    add(std::nextafter(x, -1e9), y);
    add(x, std::nextafter(y, 1e9));
  }
  // Pairs two cells apart (on one axis, or on both for the diagonal) at a
  // gap of r(1 -+ 1e-9), laid out 6 m apart along y = -75.
  double x = -60.0;
  for (const double scale : {1.0 - 1e-9, 1.0 + 1e-9}) {
    for (int axis = 0; axis < 3; ++axis) {
      const double x0 = cell * (std::floor(x / cell) + 1.0) - 1e-8 * cell;
      const double y0 = cell * (std::floor(-75.0 / cell) + 1.0) - 1e-8 * cell;
      const double d = axis == 2 ? r / std::sqrt(2.0) * scale : r * scale;
      add(x0, y0);
      add(x0 + (axis == 1 ? 0.0 : d), y0 + (axis == 0 ? 0.0 : d));
      x += 6.0;
    }
  }
  // Dense blocks whose bounds are r apart, along x or diagonally (two cells
  // apart on both axes), laid out 6 m apart along y = 75.  Each block's
  // corner is its nearest point to the other block, so the bound gap is the
  // nearest pair's distance; the partner corner steps a few ulps either
  // side of r to straddle the inclusive boundary.
  double bx = -60.0;
  for (const bool diagonal : {false, true}) {
    for (int ulps = -2; ulps <= 2; ++ulps) {
      const double d = diagonal ? r / std::sqrt(2.0) : r;
      double ox = bx + d;
      double oy = diagonal ? 75.0 + d : 75.0;
      for (int u = 0; u < std::abs(ulps); ++u) {
        ox = std::nextafter(ox, ulps > 0 ? 1e9 : -1e9);
        if (diagonal) oy = std::nextafter(oy, ulps > 0 ? 1e9 : -1e9);
      }
      add(bx, 75.0);
      add(ox, oy);
      for (int i = 0; i < 100; ++i) {
        add(bx - rng.Uniform(0.0, 0.4 * r), 75.0 - rng.Uniform(0.0, 0.4 * r));
        add(ox + rng.Uniform(0.0, 0.4 * r),
            oy + (diagonal ? 1.0 : -1.0) * rng.Uniform(0.0, 0.4 * r));
      }
      bx += 6.0;
    }
  }
  return cloud;
}

TEST(ClusteringTest, MatchesAllPairsReference) {
  std::uint64_t seed = 41;
  for (const double r : {0.605, 0.9, 1.1}) {
    SCOPED_TRACE(r);
    const pc::PointCloud cloud = OracleCloud(r, seed++);
    ClusterScratch scratch;
    for (const std::size_t min_points : {1u, 5u}) {
      const auto reference = ClusterPointsAllPairs(cloud, r, min_points);
      ExpectClustersIdentical(reference, ClusterPoints(cloud, r, min_points));
      ExpectClustersIdentical(reference,
                              ClusterPoints(cloud, r, min_points, &scratch));
    }
    // Small clouds go down the same path.
    pc::PointCloud small;
    for (std::size_t i = 0; i < 200; ++i) small.push_back(cloud[i * 17]);
    ExpectClustersIdentical(ClusterPointsAllPairs(small, r, 1),
                            ClusterPoints(small, r, 1, &scratch));
  }
}

TEST(ClusteringTest, JoinsPairsTwoCellsApartOnlyWithinRadius) {
  // A point at the top corner of its cell and a partner two cells further
  // on one or both axes: joined at r(1 - 1e-9), separate at r(1 + 1e-9).
  for (const double r : {0.605, 0.9, 1.1}) {
    const double cell = CellSide(r);
    const double c0 = cell * 4.0 - 1e-8 * cell;  // last stretch of cell 3
    for (const bool diagonal : {false, true}) {
      for (const double scale : {1.0 - 1e-9, 1.0 + 1e-9}) {
        const double d = (diagonal ? r / std::sqrt(2.0) : r) * scale;
        pc::PointCloud cloud;
        cloud.Add({c0, c0, 0.5}, 0.5f);
        cloud.Add({c0 + d, diagonal ? c0 + d : c0, 0.5}, 0.5f);
        ASSERT_EQ(std::floor((c0 + d) / cell), 5.0);
        EXPECT_EQ(ClusterPoints(cloud, r, 1).size(), scale < 1.0 ? 1u : 2u)
            << "r " << r << " diagonal " << diagonal << " scale " << scale;
      }
    }
  }
}

// --- Box fitting ---

class BoxFitYawTest : public ::testing::TestWithParam<double> {};

TEST_P(BoxFitYawTest, RecoversOrientedRectangle) {
  const double yaw = geom::DegToRad(GetParam());
  pc::PointCloud cloud;
  // Dense rectangle outline 4 x 1.6, rotated by yaw.
  for (double lx = -2.0; lx <= 2.0; lx += 0.1) {
    for (double ly : {-0.8, 0.8}) {
      cloud.Add({lx * std::cos(yaw) - ly * std::sin(yaw),
                 lx * std::sin(yaw) + ly * std::cos(yaw), 0.7},
                0.5f);
    }
  }
  for (double ly = -0.8; ly <= 0.8; ly += 0.1) {
    for (double lx : {-2.0, 2.0}) {
      cloud.Add({lx * std::cos(yaw) - ly * std::sin(yaw),
                 lx * std::sin(yaw) + ly * std::cos(yaw), 0.7},
                0.5f);
    }
  }
  const geom::Box3 box = FitOrientedBox(cloud);
  EXPECT_NEAR(box.length, 4.0, 0.15);
  EXPECT_NEAR(box.width, 1.6, 0.15);
  // Yaw is recovered modulo 180 degrees (box symmetry).
  const double err = std::abs(geom::WrapAngle(box.yaw - yaw));
  EXPECT_LT(std::min(err, 3.14159265 - err), geom::DegToRad(4.0));
}

INSTANTIATE_TEST_SUITE_P(YawSweep, BoxFitYawTest,
                         ::testing::Values(0.0, 15.0, 30.0, 45.0, 60.0, 85.0,
                                           120.0, 170.0));

TEST(BoxFitTest, HeightFromZExtent) {
  pc::PointCloud cloud;
  for (int i = 0; i <= 12; ++i) cloud.Add({0, 0, 0.2 + 0.1 * i}, 0.5f);
  cloud.Add({1, 0, 0.2}, 0.5f);
  cloud.Add({0, 1, 0.2}, 0.5f);
  const geom::Box3 box = FitOrientedBox(cloud);
  EXPECT_NEAR(box.height, 1.2, 1e-6);
  EXPECT_NEAR(box.center.z, 0.8, 1e-6);
}

TEST(BoxFitTest, LengthIsAlwaysMajorAxis) {
  pc::PointCloud cloud = GridPatch(0, 0, 0.5, 0.1);
  for (double y = -3; y <= 3; y += 0.1) cloud.Add({0, y, 0.5}, 0.5f);
  const geom::Box3 box = FitOrientedBox(cloud);
  EXPECT_GE(box.length, box.width);
}

TEST(BoxFitTest, WiderThanBoxImpliesOversizedFit) {
  const SpodConfig cfg = MakeSparseSpodConfig();
  const double max_l = cfg.max_length, max_w = cfg.max_width;
  const double gate = std::sqrt(max_l * max_l + max_w * max_w) + 1e-6;
  const auto oversized = [&](const pc::PointCloud& cluster) {
    const geom::Box3 box = FitOrientedBox(cluster);
    return box.length > max_l || box.width > max_w;
  };
  Rng rng(23);
  int fired = 0;
  // Thin walls and filled rectangles of the limits' aspect at every yaw,
  // with diameters just below and just above the gate.
  for (int deg = 0; deg < 180; ++deg) {
    const double c = std::cos(geom::DegToRad(deg));
    const double s = std::sin(geom::DegToRad(deg));
    for (const double scale : {1.0 - 1e-5, 1.0 + 1e-5}) {
      const double d = gate * scale;
      const double cx = rng.Uniform(-40.0, 40.0);
      const double cy = rng.Uniform(-40.0, 40.0);
      const auto at = [&](double u, double v) {
        return geom::Vec3{cx + c * u - s * v, cy + s * u + c * v, 0.5};
      };
      pc::PointCloud wall;
      wall.Add(at(-0.5 * d, 0.0), 0.5f);
      for (int i = 0; i < 200; ++i) {
        wall.Add(at(rng.Uniform(-0.5, 0.5) * d, rng.Uniform(-5e-5, 5e-5)),
                 0.5f);
      }
      wall.Add(at(0.5 * d, 0.0), 0.5f);
      const double k = d / std::hypot(max_l, max_w);
      const double hl = 0.5 * k * max_l, hw = 0.5 * k * max_w;
      pc::PointCloud rect;
      for (int i = 0; i < 200; ++i) {
        rect.Add(at(rng.Uniform(-hl, hl), rng.Uniform(-hw, hw)), 0.5f);
      }
      for (const double u : {-hl, hl}) {
        for (const double v : {-hw, hw}) rect.Add(at(u, v), 0.5f);
      }
      for (const pc::PointCloud* cluster : {&wall, &rect}) {
        const bool gated = WiderThanBox(*cluster, max_l, max_w);
        if (scale < 1.0) {
          EXPECT_FALSE(gated) << "yaw " << deg;
        } else if (cluster == &wall) {
          EXPECT_TRUE(gated) << "yaw " << deg;
        }
        if (gated) {
          ++fired;
          EXPECT_TRUE(oversized(*cluster)) << "yaw " << deg;
        }
      }
    }
  }
  // Seeded blobs around the gate's size: whenever the gate fires, so would
  // the fit.
  for (int i = 0; i < 300; ++i) {
    const double yaw = rng.Uniform(0.0, 2.0 * 3.141592653589793);
    const double a = rng.Uniform(2.5, 4.5), b = rng.Uniform(0.5, 2.5);
    pc::PointCloud blob;
    for (int j = 0; j < 150; ++j) {
      const double t = rng.Uniform(0.0, 2.0 * 3.141592653589793);
      const double rho = std::sqrt(rng.Uniform());
      const double u = a * rho * std::cos(t), v = b * rho * std::sin(t);
      blob.Add({10.0 + std::cos(yaw) * u - std::sin(yaw) * v,
                -5.0 + std::sin(yaw) * u + std::cos(yaw) * v, 0.5},
               0.5f);
    }
    if (WiderThanBox(blob, max_l, max_w)) {
      ++fired;
      EXPECT_TRUE(oversized(blob)) << "blob " << i;
    }
  }
  EXPECT_GT(fired, 200);
  EXPECT_FALSE(WiderThanBox(pc::PointCloud{}, max_l, max_w));
}

// The yaw search as one scalar loop per step — the box fit before it moved
// onto the rotated-bounds kernel.  Oracle for the test below.
geom::Box3 FitOrientedBoxReference(const pc::PointCloud& cluster) {
  geom::Box3 best;
  double best_area = std::numeric_limits<double>::infinity();
  constexpr int kSteps = 45;
  for (int s = 0; s < kSteps; ++s) {
    const double yaw = geom::DegToRad(90.0 * s / kSteps);
    const double c = std::cos(yaw), si = std::sin(yaw);
    double xmin = std::numeric_limits<double>::infinity(), xmax = -xmin;
    double ymin = xmin, ymax = -xmin;
    for (const auto& p : cluster) {
      const double lx = c * p.position.x + si * p.position.y;
      const double ly = -si * p.position.x + c * p.position.y;
      xmin = std::min(xmin, lx); xmax = std::max(xmax, lx);
      ymin = std::min(ymin, ly); ymax = std::max(ymax, ly);
    }
    const double area = (xmax - xmin) * (ymax - ymin);
    if (area < best_area) {
      best_area = area;
      const double cx = 0.5 * (xmin + xmax), cy = 0.5 * (ymin + ymax);
      best.center = {c * cx - si * cy, si * cx + c * cy, 0.0};
      best.length = xmax - xmin;
      best.width = ymax - ymin;
      best.yaw = yaw;
    }
  }
  if (best.width > best.length) {
    std::swap(best.length, best.width);
    best.yaw = geom::WrapAngle(best.yaw + geom::DegToRad(90.0));
  }
  double zmin = std::numeric_limits<double>::infinity(), zmax = -zmin;
  for (const auto& p : cluster) {
    zmin = std::min(zmin, p.position.z);
    zmax = std::max(zmax, p.position.z);
  }
  best.height = std::max(0.1, zmax - zmin);
  best.center.z = 0.5 * (zmin + zmax);
  return best;
}

void ExpectBoxBitsEqual(const geom::Box3& a, const geom::Box3& b,
                        const std::string& what) {
  const double fa[] = {a.center.x, a.center.y, a.center.z, a.length,
                       a.width,    a.height,   a.yaw};
  const double fb[] = {b.center.x, b.center.y, b.center.z, b.length,
                       b.width,    b.height,   b.yaw};
  EXPECT_EQ(std::memcmp(fa, fb, sizeof fa), 0) << what;
}

TEST(ClusteringTest, FitOrientedBoxForcedScalarMatchesAuto) {
  Rng rng(2024);
  std::vector<pc::PointCloud> clusters;
  clusters.emplace_back();  // empty
  pc::PointCloud single;
  single.Add({3.0, -1.0, 0.4}, 0.5f);
  clusters.push_back(single);
  // Car-sized blobs at random poses, a few hundred points each.
  for (int b = 0; b < 24; ++b) {
    const double cx = rng.Uniform(-40.0, 40.0), cy = rng.Uniform(-40.0, 40.0);
    const double yaw = rng.Uniform(-3.14159, 3.14159);
    const double half_l = rng.Uniform(0.3, 2.4), half_w = rng.Uniform(0.3, 1.0);
    pc::PointCloud blob;
    const int n = 5 + static_cast<int>(rng.Uniform(0.0, 400.0));
    for (int i = 0; i < n; ++i) {
      const double lx = rng.Uniform(-half_l, half_l);
      const double ly = rng.Uniform(-half_w, half_w);
      blob.Add({cx + lx * std::cos(yaw) - ly * std::sin(yaw),
                cy + lx * std::sin(yaw) + ly * std::cos(yaw),
                rng.Uniform(-1.0, 1.0)},
               0.5f);
    }
    clusters.push_back(blob);
  }
  // A building wall: >= 9k points along a 40 m face with a little depth.
  pc::PointCloud wall;
  for (int i = 0; i < 9500; ++i) {
    wall.Add({-20.0 + 40.0 * i / 9500.0, 12.0 + rng.Uniform(-0.05, 0.05),
              rng.Uniform(-1.5, 3.0)},
             0.5f);
  }
  clusters.push_back(wall);
  // Collinear points (zero-width boxes at several yaws), including exact
  // duplicates and an axis-aligned run.
  for (const double yaw_deg : {0.0, 2.0, 33.0, 90.0}) {
    pc::PointCloud line;
    const double yaw = geom::DegToRad(yaw_deg);
    for (int i = 0; i < 60; ++i) {
      const double t = 0.1 * (i % 40);
      line.Add({5.0 + t * std::cos(yaw), -2.0 + t * std::sin(yaw), 0.2}, 0.5f);
    }
    clusters.push_back(line);
  }

  std::vector<geom::Box3> auto_boxes;
  for (const auto& c : clusters) auto_boxes.push_back(FitOrientedBox(c));
  for (const common::simd::Mode mode :
       {common::simd::Mode::kScalar, common::simd::Mode::kSse42,
        common::simd::Mode::kAvx2, common::simd::Mode::kNeon}) {
    common::simd::SetMode(mode);
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      ExpectBoxBitsEqual(FitOrientedBox(clusters[i]), auto_boxes[i],
                         std::string(common::simd::ModeName(mode)) +
                             " cluster " + std::to_string(i));
    }
  }
  common::simd::SetMode(common::simd::Mode::kAuto);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    ExpectBoxBitsEqual(FitOrientedBoxReference(clusters[i]), auto_boxes[i],
                       "reference cluster " + std::to_string(i));
  }
}

// --- Confidence model ---

SensorResolution DenseSensor() {
  return MakeSensorResolution(64, 2.0, -24.8, 1024);
}
SensorResolution SparseSensor() {
  return MakeSensorResolution(16, 15.0, -15.0, 1800);
}

TEST(ConfidenceTest, ExpectedPointsDecreaseWithRange) {
  const auto s = DenseSensor();
  EXPECT_GT(ExpectedPointsOnCar(10, s), ExpectedPointsOnCar(20, s));
  EXPECT_GT(ExpectedPointsOnCar(20, s), ExpectedPointsOnCar(40, s));
  EXPECT_EQ(ExpectedPointsOnCar(0, s), 0.0);
}

TEST(ConfidenceTest, DenseSensorExpectsMorePoints) {
  // HDL-64's elevation resolution is ~4.7x finer; the VLP-16 preset has a
  // finer azimuth step, so the net expectation gap is ~2.7x.
  EXPECT_GT(ExpectedPointsOnCar(20, DenseSensor()),
            2.0 * ExpectedPointsOnCar(20, SparseSensor()));
}

TEST(ConfidenceTest, ProjectedWidthOrientationDependence) {
  geom::Box3 side{{20, 0, 0}, 4.5, 1.8, 1.5, geom::DegToRad(90)};
  geom::Box3 nose{{20, 0, 0}, 4.5, 1.8, 1.5, 0.0};
  EXPECT_GT(ProjectedSilhouetteWidth(side), 4.0);   // broadside
  EXPECT_LT(ProjectedSilhouetteWidth(nose), 2.0);   // end-on
}

pc::PointCloud CarCluster(double range, int n) {
  pc::PointCloud cloud;
  Rng rng(42);
  for (int i = 0; i < n; ++i) {
    cloud.Add({range + rng.Uniform(-0.2, 0.2), rng.Uniform(-2.2, 2.2),
               rng.Uniform(0.1, 1.4)},
              0.5f);
  }
  return cloud;
}

TEST(ConfidenceTest, MorePointsNeverLowerScore) {
  const auto sensor = SparseSensor();
  const geom::Box3 box{{20, 0, 0.75}, 4.5, 1.8, 1.5, geom::DegToRad(90)};
  double prev = 0.0;
  for (const int n : {5, 10, 20, 40, 80, 160}) {
    const auto f = ComputeEvidence(CarCluster(20, n), box.Expanded(0.3), sensor);
    const double s = ScoreFromEvidence(f);
    EXPECT_GE(s + 1e-9, prev) << "n=" << n;
    prev = s;
  }
}

TEST(ConfidenceTest, FullyVisibleCarScoresHigh) {
  const auto sensor = DenseSensor();
  const geom::Box3 box{{15, 0, 0.75}, 4.5, 1.8, 1.5, geom::DegToRad(90)};
  const int n = static_cast<int>(ExpectedPointsOnCar(15, sensor));
  const auto f = ComputeEvidence(CarCluster(15, n), box.Expanded(0.3), sensor);
  EXPECT_GT(ScoreFromEvidence(f), 0.7);
}

TEST(ConfidenceTest, SparseEvidenceFallsBelowThreshold) {
  const auto sensor = DenseSensor();
  const geom::Box3 box{{15, 0, 0.75}, 4.5, 1.8, 1.5, geom::DegToRad(90)};
  const auto f = ComputeEvidence(CarCluster(15, 8), box.Expanded(0.3), sensor);
  EXPECT_LT(ScoreFromEvidence(f), 0.5);
}

TEST(ConfidenceTest, ScoreIsBounded) {
  const auto sensor = SparseSensor();
  const geom::Box3 box{{5, 0, 0.75}, 4.5, 1.8, 1.5, 0.0};
  const auto f = ComputeEvidence(CarCluster(5, 5000), box.Expanded(0.3), sensor);
  const double s = ScoreFromEvidence(f);
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
}

TEST(ConfidenceTest, EvidenceFeaturesPopulated) {
  const auto sensor = DenseSensor();
  const geom::Box3 box{{15, 0, 0.75}, 4.5, 1.8, 1.5, geom::DegToRad(90)};
  const auto f = ComputeEvidence(CarCluster(15, 100), box.Expanded(0.3), sensor);
  EXPECT_EQ(f.num_points, 100u);
  EXPECT_GT(f.visibility, 0.0);
  EXPECT_GT(f.coverage, 0.3);
  EXPECT_GT(f.height_extent, 0.8);
}

// --- Detector end-to-end ---

pc::PointCloud ScanScene(const sim::Scene& scene, int beams,
                         std::uint64_t seed = 5) {
  sim::LidarConfig cfg = beams >= 32 ? sim::Hdl64Config() : sim::Vlp16Config();
  cfg.azimuth_steps = beams >= 32 ? 720 : 1200;
  Rng rng(seed);
  return sim::LidarSimulator(cfg).Scan(scene, geom::Pose::Identity(), rng);
}

SpodDetector DenseDetector() {
  SpodConfig cfg = MakeDenseSpodConfig();
  return SpodDetector(cfg, MakeSensorResolution(64, 2.0, -24.8, 720));
}

TEST(DetectorTest, DetectsIsolatedCar) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, 2, 0}, 30.0), 0.6);
  const auto result = DenseDetector().Detect(ScanScene(scene, 64));
  ASSERT_GE(result.detections.size(), 1u);
  const auto& d = result.detections[0];
  EXPECT_NEAR(d.box.center.x, 12.0, 1.5);
  EXPECT_NEAR(d.box.center.y, 2.0, 1.5);
  EXPECT_GT(d.score, 0.5);
}

TEST(DetectorTest, RejectsLongWall) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kWall, sim::MakeWallBox({15, 0, 0}, 90.0, 30.0));
  const auto result = DenseDetector().Detect(ScanScene(scene, 64));
  for (const auto& d : result.detections) {
    EXPECT_LT(d.score, 0.5) << "wall scored as car at ("
                            << d.box.center.x << "," << d.box.center.y << ")";
  }
}

TEST(DetectorTest, EmptyCloudYieldsNoDetections) {
  const auto result = DenseDetector().Detect(pc::PointCloud{});
  EXPECT_TRUE(result.detections.empty());
  EXPECT_EQ(replay::FusedVoxelCount(pc::PointCloud{}, MakeDenseSpodConfig()),
            0u);
}

TEST(DetectorTest, NanPointsAreTolerated) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, 0, 0}, 0.0), 0.6);
  pc::PointCloud cloud = ScanScene(scene, 64);
  cloud.Add({std::nan(""), 0, 0}, 0.0f);
  cloud.Add({0, std::numeric_limits<double>::infinity(), 0}, 0.5f);
  const auto result = DenseDetector().Detect(cloud);
  EXPECT_GE(result.detections.size(), 1u);
}

TEST(DetectorTest, TwoSeparateCarsTwoDetections) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, 5, 0}, 0.0), 0.6);
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, -5, 0}, 0.0), 0.6);
  const auto result = DenseDetector().Detect(ScanScene(scene, 64));
  int good = 0;
  for (const auto& d : result.detections) good += d.score >= 0.5 ? 1 : 0;
  EXPECT_EQ(good, 2);
}

TEST(DetectorTest, NmsSuppressesOverlaps) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({10, 0, 0}, 0.0), 0.6);
  const auto result = DenseDetector().Detect(ScanScene(scene, 64));
  for (std::size_t i = 0; i < result.detections.size(); ++i) {
    for (std::size_t j = i + 1; j < result.detections.size(); ++j) {
      EXPECT_LE(geom::BevIou(result.detections[i].box, result.detections[j].box),
                0.1 + 1e-9);
    }
  }
}

TEST(DetectorTest, SparseConfigDetectsOn16Beam) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({10, 1, 0}, 45.0), 0.6);
  SpodConfig cfg = MakeSparseSpodConfig();
  cfg.spherical.rows = 32;
  const SpodDetector detector(cfg, MakeSensorResolution(16, 15.0, -15.0, 1200));
  const auto result = detector.Detect(ScanScene(scene, 16));
  ASSERT_GE(result.detections.size(), 1u);
  EXPECT_GT(result.detections[0].score, 0.5);
}

TEST(DetectorTest, DeterministicResults) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({14, -3, 0}, 10.0), 0.6);
  const pc::PointCloud cloud = ScanScene(scene, 64);
  const auto a = DenseDetector().Detect(cloud);
  const auto b = DenseDetector().Detect(cloud);
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t i = 0; i < a.detections.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.detections[i].score, b.detections[i].score);
  }
}

TEST(DetectorTest, ScratchReuseIsBitIdentical) {
  // One detector reused across different clouds (its scratch carries state
  // sized by earlier frames) must give exactly the detections of a fresh
  // detector per call, at one thread and several.
  sim::Scene two_cars;
  two_cars.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, 2, 0}, 30.0), 0.6);
  two_cars.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({16, -5, 0}, 75.0), 0.6);
  sim::Scene three_cars;
  three_cars.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({9, -2, 0}, 0.0), 0.6);
  three_cars.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({20, 6, 0}, 45.0), 0.6);
  three_cars.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({25, -8, 0}, 120.0), 0.6);
  const std::vector<pc::PointCloud> clouds = {
      ScanScene(two_cars, 64), ScanScene(three_cars, 64), pc::PointCloud(),
      ScanScene(three_cars, 64), ScanScene(two_cars, 64)};
  ASSERT_FALSE(DenseDetector().Detect(clouds[0]).detections.empty());

  auto expect_same = [](const SpodResult& want, const SpodResult& got,
                        const std::string& what) {
    ASSERT_EQ(got.detections.size(), want.detections.size()) << what;
    for (std::size_t i = 0; i < want.detections.size(); ++i) {
      const auto& a = want.detections[i];
      const auto& b = got.detections[i];
      EXPECT_EQ(a.score, b.score) << what << " det " << i;
      EXPECT_EQ(a.cls, b.cls) << what << " det " << i;
      EXPECT_EQ(a.num_points, b.num_points) << what << " det " << i;
      EXPECT_EQ(a.box.center.x, b.box.center.x) << what << " det " << i;
      EXPECT_EQ(a.box.center.y, b.box.center.y) << what << " det " << i;
      EXPECT_EQ(a.box.center.z, b.box.center.z) << what << " det " << i;
      EXPECT_EQ(a.box.length, b.box.length) << what << " det " << i;
      EXPECT_EQ(a.box.width, b.box.width) << what << " det " << i;
      EXPECT_EQ(a.box.height, b.box.height) << what << " det " << i;
      EXPECT_EQ(a.box.yaw, b.box.yaw) << what << " det " << i;
    }
  };

  for (const int threads : {1, 4}) {
    SpodConfig config = MakeDenseSpodConfig();
    config.num_threads = threads;
    const SensorResolution sensor = MakeSensorResolution(64, 2.0, -24.8, 720);
    const SpodDetector reused(config, sensor);
    for (std::size_t f = 0; f < clouds.size(); ++f) {
      const SpodResult fresh = SpodDetector(config, sensor).Detect(clouds[f]);
      expect_same(fresh, reused.Detect(clouds[f]),
                  "threads " + std::to_string(threads) + " frame " +
                      std::to_string(f));
    }
  }
}

// Complete ("X") trace events named `name`, in export order, without the
// "parallel" copies ThreadPool workers re-open.
std::vector<obs::json::Value> TraceEvents(const std::string& name) {
  std::ostringstream out;
  obs::Tracer::Global().WriteChromeTrace(out);
  const auto doc = obs::json::Parse(out.str());
  std::vector<obs::json::Value> events;
  if (!doc.has_value()) return events;
  for (const auto& e : doc->Find("traceEvents")->array) {
    if (e.Find("ph")->str == "X" && e.Find("name")->str == name &&
        e.Find("cat")->str != "parallel") {
      events.push_back(e);
    }
  }
  return events;
}

TEST(DetectorTest, StageSpansNestInsideDetect) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({10, 0, 0}, 0.0), 0.6);
  const pc::PointCloud cloud = ScanScene(scene, 64);
  obs::SetEnabled(true);
  obs::Tracer::Global().Clear();
  const auto result = DenseDetector().DetectPreprocessed(cloud);
  ASSERT_FALSE(result.detections.empty());

  // One `spod.detect` span holds the three stage spans, on its thread and in
  // pipeline order.  Exported times are rounded to 1 ns.
  const auto detect = TraceEvents("spod.detect");
  ASSERT_EQ(detect.size(), 1u);
  const double begin = detect[0].Find("ts")->number;
  const double end = begin + detect[0].Find("dur")->number;
  double previous_end = begin;
  for (const char* name : {"spod.preprocess", "spod.cluster",
                           "spod.proposals"}) {
    const auto stage = TraceEvents(name);
    ASSERT_EQ(stage.size(), 1u) << name;
    const double ts = stage[0].Find("ts")->number;
    EXPECT_EQ(stage[0].Find("tid")->number, detect[0].Find("tid")->number)
        << name;
    EXPECT_GE(ts, previous_end - 2e-3) << name;
    previous_end = ts + stage[0].Find("dur")->number;
    EXPECT_LE(previous_end, end + 2e-3) << name;
  }

  // Single-origin Detect on sparse input: densify is timed inside the same
  // one `spod.detect` span.
  obs::Tracer::Global().Clear();
  SpodConfig sparse = MakeSparseSpodConfig();
  (void)SpodDetector(sparse, MakeSensorResolution(16, 15.0, -15.0, 1200))
      .Detect(ScanScene(scene, 16));
  const auto sparse_detect = TraceEvents("spod.detect");
  const auto densify = TraceEvents("spod.densify");
  ASSERT_EQ(sparse_detect.size(), 1u);
  ASSERT_EQ(densify.size(), 1u);
  EXPECT_GE(densify[0].Find("ts")->number,
            sparse_detect[0].Find("ts")->number - 2e-3);
  EXPECT_LE(densify[0].Find("ts")->number + densify[0].Find("dur")->number,
            sparse_detect[0].Find("ts")->number +
                sparse_detect[0].Find("dur")->number + 2e-3);
  obs::SetEnabled(false);

  // The step digests' voxel count is replay's, not detect's: the occupied
  // voxels of the above-ground cloud.
  const SpodConfig config = MakeDenseSpodConfig();
  const std::uint32_t voxels = replay::FusedVoxelCount(cloud, config);
  EXPECT_GT(voxels, 0u);
  EXPECT_EQ(voxels, pc::VoxelGrid(pc::AboveGround(cloud, config.ground_margin),
                                  config.voxel)
                        .voxels()
                        .size());
}

TEST(DetectorTest, DensifyIsNoOpForDenseConfig) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({10, 0, 0}, 0.0), 0.6);
  const pc::PointCloud cloud = ScanScene(scene, 64);
  const SpodDetector detector = DenseDetector();
  EXPECT_EQ(detector.Densify(cloud).size(), cloud.size());
}

TEST(DetectorTest, DensifyAddsPointsForSparseConfig) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({8, 0, 0}, 90.0), 0.6);
  SpodConfig cfg = MakeSparseSpodConfig();
  const SpodDetector detector(cfg, MakeSensorResolution(16, 15.0, -15.0, 1200));
  const pc::PointCloud cloud = ScanScene(scene, 16);
  EXPECT_GT(detector.Densify(cloud).size(), cloud.size());
}

TEST(DetectorTest, MergedCloudsRaiseScore) {
  // The core SPOD property Cooper relies on: two viewpoints' worth of points
  // on the same car yield a score at least as high as either alone.
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({14, 0, 0}, 90.0), 0.6);
  sim::LidarConfig cfg = sim::Hdl64Config();
  cfg.azimuth_steps = 720;
  Rng rng(9);
  const auto front = sim::LidarSimulator(cfg).Scan(
      scene, geom::Pose::FromGpsImu({0, 0, 0}, {0, 0, 0}), rng);
  const auto back_pose = geom::Pose::FromGpsImu({28, 0, 0}, {geom::DegToRad(180), 0, 0});
  const auto back = sim::LidarSimulator(cfg).Scan(scene, back_pose, rng);

  const SpodDetector detector = DenseDetector();
  const auto single = detector.Detect(front);
  pc::PointCloud fused = front;
  fused.Merge(back.Transformed(geom::Pose::Between(
      geom::Pose(geom::Mat3::Identity(), {0, 0, cfg.sensor_height}),
      back_pose * geom::Pose(geom::Mat3::Identity(), {0, 0, cfg.sensor_height}))));
  const auto coop = detector.DetectPreprocessed(fused);

  ASSERT_FALSE(single.detections.empty());
  ASSERT_FALSE(coop.detections.empty());
  EXPECT_GE(coop.detections[0].score + 0.05, single.detections[0].score);
  EXPECT_GT(coop.detections[0].num_points, single.detections[0].num_points);
}

}  // namespace
}  // namespace cooper::spod
