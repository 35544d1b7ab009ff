#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "pointcloud/codec.h"
#include "pointcloud/io.h"
#include "pointcloud/point_cloud.h"
#include "pointcloud/spherical_projection.h"
#include "pointcloud/voxel_grid.h"

namespace cooper::pc {
namespace {

PointCloud RandomCloud(std::size_t n, Rng& rng, double extent = 50.0) {
  PointCloud cloud;
  cloud.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cloud.Add({rng.Uniform(-extent, extent), rng.Uniform(-extent, extent),
               rng.Uniform(-2.0, 3.0)},
              static_cast<float>(rng.Uniform()));
  }
  return cloud;
}

// --- PointCloud basics ---

TEST(PointCloudTest, BasicAccessors) {
  PointCloud c;
  EXPECT_TRUE(c.empty());
  c.Add({1, 2, 3}, 0.5f);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c[0].position.x, 1.0);
  EXPECT_FLOAT_EQ(c[0].reflectance, 0.5f);
}

TEST(PointCloudTest, TransformAppliesRigidMotion) {
  PointCloud c;
  c.Add({1, 0, 0}, 0.0f);
  c.Transform(geom::Pose(geom::Rz(geom::DegToRad(90)), {0, 0, 5}));
  EXPECT_NEAR(c[0].position.x, 0.0, 1e-12);
  EXPECT_NEAR(c[0].position.y, 1.0, 1e-12);
  EXPECT_NEAR(c[0].position.z, 5.0, 1e-12);
}

TEST(PointCloudTest, TransformedLeavesOriginalUntouched) {
  PointCloud c;
  c.Add({1, 0, 0}, 0.0f);
  const PointCloud t = c.Transformed(geom::Pose(geom::Mat3::Identity(), {9, 0, 0}));
  EXPECT_DOUBLE_EQ(c[0].position.x, 1.0);
  EXPECT_DOUBLE_EQ(t[0].position.x, 10.0);
}

TEST(PointCloudTest, MergeConcatenates) {
  Rng rng(1);
  PointCloud a = RandomCloud(100, rng);
  const PointCloud b = RandomCloud(50, rng);
  a.Merge(b);
  EXPECT_EQ(a.size(), 150u);
  EXPECT_DOUBLE_EQ(a[100].position.x, b[0].position.x);
}

TEST(PointCloudTest, CropBoxKeepsOnlyInside) {
  PointCloud c;
  c.Add({0, 0, 0}, 0.0f);
  c.Add({5, 0, 0}, 0.0f);
  const geom::Box3 box{{0, 0, 0}, 2, 2, 2, 0};
  EXPECT_EQ(c.CropBox(box).size(), 1u);
}

TEST(PointCloudTest, AzimuthSectorFilter) {
  PointCloud c;
  c.Add({1, 0, 0}, 0.0f);     // 0 deg
  c.Add({0, 1, 0}, 0.0f);     // 90 deg
  c.Add({-1, 0, 0}, 0.0f);    // 180 deg
  const PointCloud front = c.FilterAzimuthSector(0.0, geom::DegToRad(60));
  EXPECT_EQ(front.size(), 1u);
  const PointCloud left = c.FilterAzimuthSector(geom::DegToRad(90), geom::DegToRad(10));
  EXPECT_EQ(left.size(), 1u);
  EXPECT_DOUBLE_EQ(left[0].position.y, 1.0);
}

TEST(PointCloudTest, AzimuthSectorWrapsAroundPi) {
  PointCloud c;
  c.Add({-1, 0.01, 0}, 0.0f);   // ~180 deg
  c.Add({-1, -0.01, 0}, 0.0f);  // ~-180 deg
  const PointCloud rear = c.FilterAzimuthSector(geom::DegToRad(180), geom::DegToRad(5));
  EXPECT_EQ(rear.size(), 2u);
}

TEST(PointCloudTest, RangeFilter) {
  PointCloud c;
  c.Add({1, 0, 10}, 0.0f);
  c.Add({30, 0, -5}, 0.0f);
  EXPECT_EQ(c.FilterRange(0, 5).size(), 1u);   // z ignored in ground range
  EXPECT_EQ(c.FilterRange(5, 100).size(), 1u);
}

TEST(PointCloudTest, MinZFilter) {
  PointCloud c;
  c.Add({0, 0, -1}, 0.0f);
  c.Add({0, 0, 1}, 0.0f);
  EXPECT_EQ(c.FilterMinZ(0.0).size(), 1u);
}

TEST(PointCloudTest, RemoveInvalidDropsNanAndInf) {
  PointCloud c;
  c.Add({0, 0, 0}, 0.0f);
  c.Add({std::numeric_limits<double>::quiet_NaN(), 0, 0}, 0.0f);
  c.Add({0, std::numeric_limits<double>::infinity(), 0}, 0.0f);
  c.Add({1, 1, 1}, std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(c.RemoveInvalid(), 3u);
  EXPECT_EQ(c.size(), 1u);
}

// AboveGround's reference: the copy → RemoveInvalid → EstimateGroundZ →
// FilterMinZ sequence it replaces.
PointCloud AboveGroundReference(const PointCloud& input, double margin) {
  PointCloud cloud = input;
  cloud.RemoveInvalid();
  return cloud.FilterMinZ(EstimateGroundZ(cloud) + margin);
}

void ExpectSamePoints(const PointCloud& a, const PointCloud& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].position.x, b[i].position.x) << i;
    EXPECT_EQ(a[i].position.y, b[i].position.y) << i;
    EXPECT_EQ(a[i].position.z, b[i].position.z) << i;
    EXPECT_EQ(a[i].reflectance, b[i].reflectance) << i;
  }
}

TEST(PointCloudTest, AboveGroundMatchesCopyFilterReference) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  Rng rng(77);
  for (const double margin : {0.0, 0.25, 0.3, -0.5}) {
    SCOPED_TRACE(margin);
    PointCloud cloud;
    for (int i = 0; i < 3000; ++i) {
      // z on a 0.25 m lattice, so many points tie with the ground estimate
      // and with the threshold itself.
      const double z = -2.0 + 0.25 * static_cast<int>(rng.Uniform(0.0, 14.0));
      cloud.Add({rng.Uniform(-40.0, 40.0), rng.Uniform(-40.0, 40.0), z},
                static_cast<float>(rng.Uniform()));
      if (i % 97 == 0) {
        // Invalid points whose finite z would otherwise move the percentile.
        const double bad = i % 2 == 0 ? kNan : (i % 3 == 0 ? kInf : -kInf);
        cloud.Add({bad, 0.0, -9.0}, 0.5f);
        cloud.Add({0.0, bad, 5.0}, 0.5f);
        cloud.Add({1.0, 1.0, bad}, 0.5f);
        cloud.Add({1.0, 1.0, -9.0}, static_cast<float>(bad));
      }
    }
    ExpectSamePoints(AboveGround(cloud, margin),
                     AboveGroundReference(cloud, margin));
  }
  // Degenerate inputs: empty, all invalid, one point.
  EXPECT_TRUE(AboveGround(PointCloud{}, 0.3).empty());
  PointCloud invalid;
  invalid.Add({kNan, 0.0, 0.0}, 0.5f);
  invalid.Add({0.0, 0.0, -kInf}, 0.5f);
  EXPECT_TRUE(AboveGround(invalid, -1.0).empty());
  invalid.Add({0.0, 0.0, 1.5}, 0.5f);
  ExpectSamePoints(AboveGround(invalid, 0.0),
                   AboveGroundReference(invalid, 0.0));
  EXPECT_EQ(AboveGround(invalid, 0.0).size(), 1u);
}

TEST(PointCloudTest, BoundsComputed) {
  PointCloud c;
  c.Add({-1, 5, 0}, 0.0f);
  c.Add({3, -2, 7}, 0.0f);
  const auto [lo, hi] = c.Bounds();
  EXPECT_DOUBLE_EQ(lo.x, -1);
  EXPECT_DOUBLE_EQ(lo.y, -2);
  EXPECT_DOUBLE_EQ(hi.z, 7);
}

TEST(PointCloudTest, CountInBox) {
  Rng rng(3);
  const PointCloud c = RandomCloud(1000, rng, 10.0);
  const geom::Box3 box{{0, 0, 0.5}, 4, 4, 5, 0.3};
  std::size_t manual = 0;
  for (const auto& p : c) manual += box.Contains(p.position) ? 1 : 0;
  EXPECT_EQ(c.CountInBox(box), manual);
}

// --- Voxel grid ---

TEST(VoxelGridTest, GroupsPointsByVoxel) {
  VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {10, 10, 10};
  cfg.voxel_size = {1, 1, 1};
  PointCloud c;
  c.Add({0.5, 0.5, 0.5}, 0.0f);
  c.Add({0.6, 0.4, 0.5}, 0.0f);  // same voxel
  c.Add({5.5, 5.5, 5.5}, 0.0f);  // different voxel
  const VoxelGrid grid(c, cfg);
  EXPECT_EQ(grid.voxels().size(), 2u);
  EXPECT_EQ(grid.voxels()[0].point_indices.size(), 2u);
}

TEST(VoxelGridTest, OutOfBoundsPointsIgnored) {
  VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {1, 1, 1};
  cfg.voxel_size = {1, 1, 1};
  PointCloud c;
  c.Add({-5, 0.5, 0.5}, 0.0f);
  c.Add({0.5, 0.5, 0.5}, 0.0f);
  EXPECT_EQ(VoxelGrid(c, cfg).voxels().size(), 1u);
}

TEST(VoxelGridTest, CountOccupiedVoxelsMatchesGridSize) {
  VoxelGridConfig cfg;
  cfg.min_bound = {-10.0, -8.0, -3.0};
  cfg.max_bound = {10.0, 8.0, 2.0};
  cfg.voxel_size = {0.25, 0.25, 0.5};
  cfg.max_points_per_voxel = 3;  // the cap drops points, never voxels
  Rng rng(19);
  PointCloud cloud;
  for (int i = 0; i < 4000; ++i) {
    // Spans past every bound, with negative coordinates.
    const Point p{{rng.Uniform(-12.0, 12.0), rng.Uniform(-10.0, 10.0),
                   rng.Uniform(-4.0, 3.0)},
                  0.5f};
    cloud.push_back(p);
    // Repeats: back to back, and again after an out-of-bounds point.
    if (i % 5 == 0) cloud.push_back(p);
    if (i % 7 == 0) {
      cloud.Add({50.0, 0.0, 0.0}, 0.5f);
      cloud.push_back(p);
    }
  }
  // Points on max_bound (excluded) and min_bound (included).
  for (const double t : {-1.0, 0.0, 3.5}) {
    cloud.Add({cfg.max_bound.x, t, 0.0}, 0.5f);
    cloud.Add({t, cfg.max_bound.y, 0.0}, 0.5f);
    cloud.Add({t, t, cfg.max_bound.z}, 0.5f);
    cloud.Add({cfg.min_bound.x, t, cfg.min_bound.z}, 0.5f);
  }
  for (const int threads : {1, 4}) {
    cfg.num_threads = threads;
    EXPECT_EQ(CountOccupiedVoxels(cloud, cfg),
              VoxelGrid(cloud, cfg).voxels().size());
  }
  EXPECT_EQ(CountOccupiedVoxels(PointCloud{}, cfg), 0u);
}

TEST(VoxelGridTest, MaxPointsPerVoxelCap) {
  VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {1, 1, 1};
  cfg.voxel_size = {1, 1, 1};
  cfg.max_points_per_voxel = 3;
  PointCloud c;
  for (int i = 0; i < 10; ++i) c.Add({0.5, 0.5, 0.5}, 0.0f);
  EXPECT_EQ(VoxelGrid(c, cfg).voxels()[0].point_indices.size(), 3u);
}

TEST(VoxelGridTest, GridShapeCeils) {
  VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {10, 4.5, 3};
  cfg.voxel_size = {2, 2, 2};
  const VoxelGrid grid(PointCloud{}, cfg);
  const auto shape = grid.GridShape();
  EXPECT_EQ(shape.x, 5);
  EXPECT_EQ(shape.y, 3);
  EXPECT_EQ(shape.z, 2);
}

TEST(VoxelGridTest, VoxelCenterGeometry) {
  VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {10, 10, 10};
  cfg.voxel_size = {2, 2, 2};
  const VoxelGrid grid(PointCloud{}, cfg);
  const auto c = grid.VoxelCenter({1, 0, 2});
  EXPECT_DOUBLE_EQ(c.x, 3.0);
  EXPECT_DOUBLE_EQ(c.y, 1.0);
  EXPECT_DOUBLE_EQ(c.z, 5.0);
}

TEST(VoxelGridTest, FindLocatesVoxelOfPoint) {
  VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {10, 10, 10};
  cfg.voxel_size = {1, 1, 1};
  PointCloud c;
  c.Add({2.5, 3.5, 4.5}, 0.0f);
  const VoxelGrid grid(c, cfg);
  ASSERT_NE(grid.Find({2.7, 3.2, 4.9}), nullptr);
  EXPECT_EQ(grid.Find({9.5, 9.5, 9.5}), nullptr);
  EXPECT_EQ(grid.Find({-1, 0, 0}), nullptr);
}

TEST(VoxelGridTest, OccupancyFractionSane) {
  VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {10, 10, 10};
  cfg.voxel_size = {1, 1, 1};
  PointCloud c;
  c.Add({0.5, 0.5, 0.5}, 0.0f);
  EXPECT_NEAR(VoxelGrid(c, cfg).Occupancy(), 1.0 / 1000.0, 1e-12);
}

TEST(VoxelGridTest, DownsampleAveragesVoxelPoints) {
  VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {10, 10, 10};
  cfg.voxel_size = {1, 1, 1};
  PointCloud c;
  c.Add({0.25, 0.5, 0.5}, 0.2f);
  c.Add({0.75, 0.5, 0.5}, 0.4f);
  const PointCloud down = VoxelGrid(c, cfg).Downsample(c);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_NEAR(down[0].position.x, 0.5, 1e-12);
  EXPECT_NEAR(down[0].reflectance, 0.3f, 1e-6);
}

// --- Spherical projection ---

SphericalProjectionConfig SmallProjection() {
  SphericalProjectionConfig cfg;
  cfg.rows = 16;
  cfg.cols = 90;
  cfg.fov_up_deg = 15.0;
  cfg.fov_down_deg = -15.0;
  return cfg;
}

TEST(RangeImageTest, ProjectsPointToExpectedPixel) {
  RangeImage img(SmallProjection());
  PointCloud c;
  c.Add({10, 0, 0}, 0.5f);  // azimuth 0, elevation 0 -> middle of the image
  img.Project(c);
  int valid = 0;
  for (int r = 0; r < img.rows(); ++r) {
    for (int col = 0; col < img.cols(); ++col) {
      if (img.Valid(r, col)) {
        ++valid;
        EXPECT_NEAR(img.At(r, col).range, 10.0f, 1e-4);
        EXPECT_EQ(col, img.cols() / 2);  // azimuth 0 in [-180, 180)
        EXPECT_EQ(r, img.rows() / 2);    // elevation 0 at mid FOV
      }
    }
  }
  EXPECT_EQ(valid, 1);
}

TEST(RangeImageTest, KeepsNearestPerPixel) {
  RangeImage img(SmallProjection());
  PointCloud c;
  c.Add({10, 0, 0}, 0.1f);
  c.Add({5, 0, 0}, 0.9f);  // same direction, nearer
  img.Project(c);
  EXPECT_NEAR(img.At(img.rows() / 2, img.cols() / 2).range, 5.0f, 1e-4);
  EXPECT_FLOAT_EQ(img.At(img.rows() / 2, img.cols() / 2).reflectance, 0.9f);

  // An exact tie in range keeps the first point.
  PointCloud tie;
  tie.Add({6, 0, 0}, 0.3f);
  tie.Add({6, 0, 0}, 0.7f);
  img.Project(tie);
  EXPECT_FLOAT_EQ(img.At(img.rows() / 2, img.cols() / 2).range, 6.0f);
  EXPECT_FLOAT_EQ(img.At(img.rows() / 2, img.cols() / 2).reflectance, 0.3f);
  EXPECT_EQ(img.ToPointCloud().size(), 1u);
}

TEST(RangeImageTest, OutOfFovIgnored) {
  RangeImage img(SmallProjection());
  PointCloud c;
  c.Add({1, 0, 10}, 0.0f);  // elevation ~84 deg, outside +-15
  img.Project(c);
  EXPECT_TRUE(img.ToPointCloud().empty());
}

TEST(RangeImageTest, BackProjectionPreservesValidPoints) {
  Rng rng(5);
  RangeImage img(SmallProjection());
  PointCloud c;
  for (int i = 0; i < 500; ++i) {
    const double az = rng.Uniform(-3.1, 3.1);
    const double el = rng.Uniform(-0.25, 0.25);
    const double r = rng.Uniform(2.0, 50.0);
    c.Add({r * std::cos(el) * std::cos(az), r * std::cos(el) * std::sin(az),
           r * std::sin(el)},
          0.5f);
  }
  img.Project(c);
  const PointCloud back = img.ToPointCloud();
  // One point per valid pixel, each exactly equal to some input point.
  std::size_t valid = 0;
  for (int r = 0; r < img.rows(); ++r)
    for (int col = 0; col < img.cols(); ++col) valid += img.Valid(r, col);
  EXPECT_EQ(back.size(), valid);
  EXPECT_GT(back.size(), 100u);
}

TEST(RangeImageTest, DensifyFillsSupportedHoles) {
  RangeImage img(SmallProjection());
  // Fill a full block except one centre pixel by hand.
  for (int r = 5; r <= 9; ++r) {
    for (int c = 20; c <= 24; ++c) {
      if (r == 7 && c == 22) continue;
      img.Set(r, c, {10.0f, 10.0f, 0.0f, 0.0f, 0.0f});
    }
  }
  EXPECT_FALSE(img.Valid(7, 22));
  img.Densify(1);
  EXPECT_TRUE(img.Valid(7, 22));
  EXPECT_NEAR(img.At(7, 22).range, 10.0f, 1e-5);
}

TEST(RangeImageTest, DensifyLeavesUnsupportedHoles) {
  RangeImage img(SmallProjection());
  img.Set(3, 3, {5.0f, 0.0f, 0.0f, 0.0f, 0.0f});  // a single isolated pixel
  img.Densify(2);
  // Neighbours have at most one valid neighbour each -> not filled.
  EXPECT_FALSE(img.Valid(3, 4));
  EXPECT_FALSE(img.Valid(2, 3));
}

// --- KITTI I/O ---

TEST(IoTest, BytesRoundTrip) {
  Rng rng(7);
  const PointCloud c = RandomCloud(257, rng);
  const auto bytes = ToKittiBytes(c);
  EXPECT_EQ(bytes.size(), 257u * 16u);
  const auto back = FromKittiBytes(bytes);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(back.value()[i].position.x, c[i].position.x, 1e-4);
    EXPECT_FLOAT_EQ(back.value()[i].reflectance, c[i].reflectance);
  }
}

TEST(IoTest, TruncatedBytesRejected) {
  std::vector<std::uint8_t> bytes(15, 0);
  EXPECT_EQ(FromKittiBytes(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(IoTest, FileRoundTrip) {
  Rng rng(8);
  const PointCloud c = RandomCloud(100, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "cooper_io_test.bin").string();
  ASSERT_TRUE(WriteKittiBin(path, c).ok());
  const auto back = ReadKittiBin(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 100u);
  std::filesystem::remove(path);
}

TEST(IoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadKittiBin("/nonexistent/nope.bin").status().code(),
            StatusCode::kNotFound);
}

// --- Codec ---

class CodecResolutionTest : public ::testing::TestWithParam<double> {};

TEST_P(CodecResolutionTest, RoundTripWithinResolution) {
  const double res = GetParam();
  Rng rng(9);
  const PointCloud c = RandomCloud(500, rng);
  const CloudCodec codec(CodecConfig{res, true});
  const auto back = CloudCodec::Decode(codec.Encode(c));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(back.value()[i].position.x, c[i].position.x, res * 0.51);
    EXPECT_NEAR(back.value()[i].position.y, c[i].position.y, res * 0.51);
    EXPECT_NEAR(back.value()[i].position.z, c[i].position.z, res * 0.51);
    EXPECT_NEAR(back.value()[i].reflectance, c[i].reflectance, 1.0 / 255.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, CodecResolutionTest,
                         ::testing::Values(0.001, 0.01, 0.05, 0.1));

TEST(CodecTest, NonDeltaModeRoundTrips) {
  Rng rng(10);
  const PointCloud c = RandomCloud(200, rng);
  const CloudCodec codec(CodecConfig{0.01, false});
  const auto back = CloudCodec::Decode(codec.Encode(c));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 200u);
}

TEST(CodecTest, EmptyCloudRoundTrips) {
  const CloudCodec codec;
  const auto back = CloudCodec::Decode(codec.Encode(PointCloud{}));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(CodecTest, CompressesVsRawLayout) {
  // Scan-ordered points delta-encode well; expect at least ~2x over the raw
  // 16-byte layout.
  PointCloud c;
  for (int i = 0; i < 5000; ++i) {
    const double az = 0.002 * i;
    c.Add({20 * std::cos(az), 20 * std::sin(az), -1.5}, 0.3f);
  }
  const double raw_bytes = 16.0 * static_cast<double>(c.size());
  EXPECT_GT(raw_bytes / static_cast<double>(CloudCodec().Encode(c).size()),
            2.0);
}

TEST(CodecTest, BadMagicRejected) {
  std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(CloudCodec::Decode(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(CodecTest, TruncationRejectedAtEveryPrefix) {
  Rng rng(11);
  const PointCloud c = RandomCloud(20, rng);
  const auto bytes = CloudCodec().Encode(c);
  // Every strict prefix must fail cleanly (never crash, never succeed).
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(CloudCodec::Decode(prefix).ok()) << "prefix " << cut;
  }
}

// --- VoxelCoordHash ---

// The open-addressing tables index with `hash & (capacity - 1)`, so the LOW
// bits must already be well mixed for the dense, small-magnitude coordinate
// blocks a voxel grid produces.  Hash a 32x32x16 block (16384 coords) into
// the bucket count a FlatMap would use and require near-uniform occupancy.
TEST(VoxelCoordHashTest, DenseBlockSpreadsAcrossLowBitBuckets) {
  constexpr std::size_t kBuckets = 32768;  // 2 * 16384, power of two
  std::vector<int> load(kBuckets, 0);
  VoxelCoordHash hash;
  std::size_t n = 0;
  for (std::int32_t z = 0; z < 16; ++z) {
    for (std::int32_t y = -16; y < 16; ++y) {
      for (std::int32_t x = -16; x < 16; ++x) {
        ++load[hash({x, y, z}) & (kBuckets - 1)];
        ++n;
      }
    }
  }
  ASSERT_EQ(n, 16384u);
  int max_load = 0;
  std::size_t occupied = 0;
  for (const int l : load) {
    max_load = std::max(max_load, l);
    occupied += l > 0;
  }
  // A uniform random throw of 16384 balls into 32768 bins occupies ~39% of
  // bins with a max load of ~5; a hash that leaks coordinate structure into
  // the low bits collapses to a few hundred buckets with huge piles.
  EXPECT_GE(occupied, kBuckets / 4) << "low bits are not mixing";
  EXPECT_LE(max_load, 8);
}

TEST(VoxelCoordHashTest, AxisShiftsChangeTheHash) {
  VoxelCoordHash hash;
  const std::size_t base = hash({5, -3, 2});
  EXPECT_NE(base, hash({6, -3, 2}));
  EXPECT_NE(base, hash({5, -2, 2}));
  EXPECT_NE(base, hash({5, -3, 3}));
  // Swapping axes must not collide either (the pack is asymmetric).
  EXPECT_NE(hash({1, 2, 3}), hash({2, 1, 3}));
  EXPECT_NE(hash({1, 2, 3}), hash({1, 3, 2}));
}

}  // namespace
}  // namespace cooper::pc
