#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/cooper.h"
#include "eval/experiment.h"
#include "pointcloud/icp.h"
#include "pointcloud/kdtree.h"
#include "sim/lidar.h"
#include "sim/scene.h"

namespace cooper::pc {
namespace {

PointCloud RandomCloud(std::size_t n, Rng& rng, double extent = 20.0) {
  PointCloud cloud;
  for (std::size_t i = 0; i < n; ++i) {
    cloud.Add({rng.Uniform(-extent, extent), rng.Uniform(-extent, extent),
               rng.Uniform(-2, 2)},
              0.5f);
  }
  return cloud;
}

// --- KdTree ---

TEST(KdTreeTest, EmptyTree) {
  const KdTree tree((PointCloud()));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Nearest({0, 0, 0}).has_value());
}

TEST(KdTreeTest, SinglePoint) {
  PointCloud c;
  c.Add({1, 2, 3}, 0.0f);
  const KdTree tree(c);
  const auto nn = tree.Nearest({0, 0, 0});
  ASSERT_TRUE(nn.has_value());
  EXPECT_EQ(nn->index, 0u);
  EXPECT_NEAR(nn->squared_distance, 14.0, 1e-12);
}

TEST(KdTreeTest, NearestMatchesBruteForce) {
  Rng rng(11);
  const PointCloud cloud = RandomCloud(500, rng);
  const KdTree tree(cloud);
  for (int trial = 0; trial < 200; ++trial) {
    const geom::Vec3 q{rng.Uniform(-25, 25), rng.Uniform(-25, 25),
                       rng.Uniform(-3, 3)};
    double best = 1e300;
    for (const auto& p : cloud) best = std::min(best, (p.position - q).SquaredNorm());
    const auto nn = tree.Nearest(q);
    ASSERT_TRUE(nn.has_value());
    EXPECT_NEAR(nn->squared_distance, best, 1e-9);
  }
}

TEST(KdTreeTest, NearestWithinRespectsBound) {
  PointCloud c;
  c.Add({10, 0, 0}, 0.0f);
  const KdTree tree(c);
  EXPECT_FALSE(tree.NearestWithin({0, 0, 0}, 25.0).has_value());  // 5 m bound
  EXPECT_TRUE(tree.NearestWithin({0, 0, 0}, 121.0).has_value());
}

TEST(KdTreeTest, NearestWithinBoundaryIsInclusive) {
  // Regression: a neighbour sitting *exactly* at max_squared_distance used to
  // be rejected by the strict seed bound.  The radius is documented inclusive.
  PointCloud c;
  c.Add({3, 0, 0}, 0.0f);
  const KdTree tree(c);
  const auto nn = tree.NearestWithin({0, 0, 0}, 9.0);  // d^2 == 9.0 exactly
  ASSERT_TRUE(nn.has_value());
  EXPECT_EQ(nn->index, 0u);
  EXPECT_EQ(nn->squared_distance, 9.0);
  // One ulp below the boundary still excludes it.
  EXPECT_FALSE(
      tree.NearestWithin({0, 0, 0}, std::nextafter(9.0, 0.0)).has_value());
  // Degenerate inclusive case: zero radius matches a coincident point.
  EXPECT_TRUE(tree.NearestWithin({3, 0, 0}, 0.0).has_value());
}

TEST(KdTreeTest, DuplicatePointsHandled) {
  // Ten coincident points plus one distinct point: the split planes must
  // still partition correctly, so queries reach both the duplicate run and
  // the lone point.
  PointCloud c;
  for (int i = 0; i < 10; ++i) c.Add({1, 1, 1}, 0.0f);
  c.Add({5, 5, 5}, 0.0f);
  const KdTree tree(c);
  EXPECT_EQ(tree.size(), 11u);
  const auto dup = tree.Nearest({1, 1, 1});
  ASSERT_TRUE(dup.has_value());
  EXPECT_LT(dup->index, 10u);
  EXPECT_EQ(dup->squared_distance, 0.0);
  const auto near_dup = tree.NearestWithin({1.1, 1, 1}, 0.02);
  ASSERT_TRUE(near_dup.has_value());
  EXPECT_LT(near_dup->index, 10u);
  EXPECT_NEAR(near_dup->squared_distance, 0.01, 1e-12);
  const auto lone = tree.Nearest({5, 5, 4.5});
  ASSERT_TRUE(lone.has_value());
  EXPECT_EQ(lone->index, 10u);
  EXPECT_FALSE(tree.NearestWithin({3, 3, 3}, 1.0).has_value());
}

// --- ICP ---

// Structured scene cloud (corners constrain both translation and yaw).
PointCloud StructuredCloud(Rng& rng) {
  PointCloud cloud;
  auto add_box_face = [&](double cx, double cy, double half, int n) {
    for (int i = 0; i < n; ++i) {
      const double t = rng.Uniform(-half, half);
      cloud.Add({cx + t, cy - half, rng.Uniform(0.2, 1.4)}, 0.5f);
      cloud.Add({cx - half, cy + t, rng.Uniform(0.2, 1.4)}, 0.5f);
    }
  };
  add_box_face(5, 3, 1.0, 60);
  add_box_face(-4, 8, 1.2, 60);
  add_box_face(10, -6, 0.9, 60);
  add_box_face(-8, -5, 1.1, 60);
  return cloud;
}

class IcpRecoveryTest : public ::testing::TestWithParam<double> {};

TEST_P(IcpRecoveryTest, RecoversKnownOffset) {
  Rng rng(17);
  const PointCloud target = StructuredCloud(rng);
  const double offset = GetParam();
  const geom::Pose true_pose(geom::Rz(0.02), {offset, -0.6 * offset, 0.0});
  // source = target moved by the inverse: aligning source onto target must
  // recover true_pose.
  const PointCloud source = target.Transformed(true_pose.Inverse());

  const IcpResult result = IcpAlign(source, target, geom::Pose::Identity());
  ASSERT_TRUE(result.converged) << "offset " << offset;
  // Check alignment quality on the points themselves.
  double err = 0.0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    err += (result.transform * source[i].position - target[i].position).Norm();
  }
  EXPECT_LT(err / static_cast<double>(source.size()), 0.05) << "offset " << offset;
}

INSTANTIATE_TEST_SUITE_P(Offsets, IcpRecoveryTest,
                         ::testing::Values(0.1, 0.3, 0.7, 1.2));

TEST(IcpTest, AlreadyAlignedConvergesImmediately) {
  Rng rng(19);
  const PointCloud cloud = StructuredCloud(rng);
  const IcpResult result = IcpAlign(cloud, cloud, geom::Pose::Identity());
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 3);
  EXPECT_LT(result.rms_error, 1e-6);
}

TEST(IcpTest, EmptyInputsFailGracefully) {
  PointCloud empty;
  Rng rng(21);
  const PointCloud cloud = StructuredCloud(rng);
  EXPECT_FALSE(IcpAlign(empty, cloud, geom::Pose::Identity()).converged);
  EXPECT_FALSE(IcpAlign(cloud, empty, geom::Pose::Identity()).converged);
}

TEST(IcpTest, TooFewCorrespondencesFails) {
  PointCloud a, b;
  a.Add({0, 0, 0}, 0.0f);
  b.Add({100, 100, 0}, 0.0f);  // outside correspondence range
  EXPECT_FALSE(IcpAlign(a, b, geom::Pose::Identity()).converged);
}

TEST(IcpTest, FinalRmsReflectsAppliedTransform) {
  // Regression: rms_error used to be computed from correspondences gathered
  // *before* the final delta was applied, so it described the previous
  // iterate.  For a converging pair the residual of the returned transform
  // must improve on the initial guess.
  Rng rng(31);
  const PointCloud target = StructuredCloud(rng);
  const geom::Pose true_pose(geom::Rz(0.03), {0.8, -0.5, 0.0});
  const PointCloud source = target.Transformed(true_pose.Inverse());
  const IcpResult result = IcpAlign(source, target, geom::Pose::Identity());
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.initial_rms, 0.1);
  EXPECT_LE(result.rms_error, result.initial_rms);
  EXPECT_LT(result.rms_error, 0.05);  // residual of the *final* transform
}

TEST(IcpTest, ParallelSearchBitIdenticalToSerial) {
  Rng rng(37);
  const PointCloud target = StructuredCloud(rng);
  const geom::Pose true_pose(geom::Rz(0.02), {0.6, -0.4, 0.0});
  const PointCloud source = target.Transformed(true_pose.Inverse());
  IcpConfig serial_cfg;
  serial_cfg.num_threads = 1;
  const IcpResult serial = IcpAlign(source, target, geom::Pose::Identity(),
                                    serial_cfg);
  for (const int threads : {2, 8}) {
    IcpConfig cfg = serial_cfg;
    cfg.num_threads = threads;
    const IcpResult parallel =
        IcpAlign(source, target, geom::Pose::Identity(), cfg);
    EXPECT_EQ(parallel.iterations, serial.iterations) << threads;
    EXPECT_EQ(parallel.correspondences, serial.correspondences) << threads;
    EXPECT_EQ(parallel.rms_error, serial.rms_error) << threads;
    EXPECT_EQ(parallel.transform.translation().x,
              serial.transform.translation().x)
        << threads;
    EXPECT_EQ(parallel.transform.translation().y,
              serial.transform.translation().y)
        << threads;
  }
}

TEST(IcpTest, InitialGuessComposes) {
  Rng rng(23);
  const PointCloud target = StructuredCloud(rng);
  const geom::Pose true_pose(geom::Rz(0.05), {3.0, -2.0, 0.0});
  const PointCloud source = target.Transformed(true_pose.Inverse());
  // A guess near the truth: ICP should polish, not diverge.
  const geom::Pose guess(geom::Rz(0.04), {2.8, -1.7, 0.0});
  const IcpResult result = IcpAlign(source, target, guess);
  ASSERT_TRUE(result.converged);
  double err = 0.0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    err += (result.transform * source[i].position - target[i].position).Norm();
  }
  EXPECT_LT(err / static_cast<double>(source.size()), 0.05);
}

// --- ICP refinement inside the Cooper pipeline ---

TEST(IcpPipelineTest, RefinementRecoversLargeGpsDrift) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, 3, 0}, 10.0), 0.6);
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({18, -4, 0}, 170.0), 0.6);
  scene.AddObject(sim::ObjectClass::kWall, sim::MakeWallBox({25, 5, 0}, 30.0, 14.0), 0.3);
  sim::LidarConfig lidar_cfg = sim::Hdl64Config();
  lidar_cfg.azimuth_steps = 720;

  Rng rng(29);
  const sim::LidarSimulator lidar(lidar_cfg);
  const geom::Pose pose_a = geom::Pose::Identity();
  const geom::Pose pose_b = geom::Pose::FromGpsImu({6, 2, 0}, {geom::DegToRad(15), 0, 0});
  const auto cloud_a = lidar.Scan(scene, pose_a, rng);
  const auto cloud_b = lidar.Scan(scene, pose_b, rng);

  const geom::Vec3 mount{0, 0, lidar_cfg.sensor_height};
  const core::NavMetadata nav_a{{0, 0, 0}, {0, 0, 0}, mount};
  // Transmitter reports GPS with 1.5 m drift — far past the Fig. 10 bound.
  core::NavMetadata nav_b{{6 + 1.1, 2 - 1.0, 0}, {geom::DegToRad(15), 0, 0}, mount};

  core::CooperConfig cfg = eval::MakeCooperConfig(lidar_cfg);
  const core::CooperPipeline plain(cfg);
  cfg.icp_refinement = true;
  const core::CooperPipeline refined(cfg);

  const auto package = plain.MakePackage(2, 0.0, core::RoiCategory::kFullFrame,
                                         nav_b, cloud_b);

  // Measure alignment error of the reconstructed remote cloud against the
  // geometric truth via a detection-level check: the fused detection for the
  // car at (12, 3) must sit near the truth with refinement enabled.
  const auto coop = refined.DetectCooperative(cloud_a, nav_a, package);
  ASSERT_TRUE(coop.ok());
  bool found_near_truth = false;
  for (const auto& d : coop->fused.detections) {
    if (d.score >= 0.5 && std::abs(d.box.center.x - 12.0) < 1.2 &&
        std::abs(d.box.center.y - 3.0) < 1.2) {
      found_near_truth = true;
    }
  }
  EXPECT_TRUE(found_near_truth);
}

}  // namespace
}  // namespace cooper::pc
