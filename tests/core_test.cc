#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/cooper.h"
#include "core/exchange.h"
#include "core/roi.h"
#include "eval/experiment.h"
#include "net/serialize.h"
#include "obs/metrics.h"
#include "sim/lidar.h"
#include "sim/scenario.h"
#include "sim/scene.h"

namespace cooper::core {
namespace {

// --- Exchange packages ---

TEST(ExchangeTest, BuildAndUnpackRoundTrip) {
  pc::PointCloud cloud;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    cloud.Add({rng.Uniform(-30, 30), rng.Uniform(-30, 30), rng.Uniform(-2, 2)},
              static_cast<float>(rng.Uniform()));
  }
  const NavMetadata nav{{1, 2, 0}, {0.5, 0, 0}, {0, 0, 1.9}};
  const pc::CloudCodec codec;
  const auto package = BuildPackage(9, 3.25, RoiCategory::kFullFrame, nav,
                                    cloud, codec);
  EXPECT_EQ(package.sender_id, 9u);
  EXPECT_GT(package.PayloadBytes(), 0u);
  EXPECT_NEAR(package.PayloadMbit(),
              package.PayloadBytes() * 8.0 / 1e6, 1e-12);

  const auto back = DecodePackage(package);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), cloud.size());
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    EXPECT_NEAR(back.value()[i].position.x, cloud[i].position.x, 0.006);
  }
}

TEST(ExchangeTest, CorruptPayloadFailsUnpack) {
  ExchangePackage p;
  p.payload = {1, 2, 3, 4, 5};
  EXPECT_FALSE(DecodePackage(p).ok());
}

TEST(ExchangeTest, SensorPoseIncludesMount) {
  NavMetadata nav{{10, 0, 0}, {0, 0, 0}, {0, 0, 1.73}};
  const geom::Vec3 origin = nav.SensorPose() * geom::Vec3{0, 0, 0};
  EXPECT_NEAR(origin.x, 10.0, 1e-12);
  EXPECT_NEAR(origin.z, 1.73, 1e-12);
}

TEST(ExchangeTest, RoiCategoryNames) {
  EXPECT_NE(std::string(RoiCategoryName(RoiCategory::kFullFrame)).find("full"),
            std::string::npos);
  EXPECT_NE(std::string(RoiCategoryName(RoiCategory::kFrontSector)).find("120"),
            std::string::npos);
}

// --- ROI extraction ---

pc::PointCloud MakeRoiTestCloud() {
  pc::PointCloud cloud;
  // Ground carpet (establishes the ground estimate).
  for (int i = 0; i < 200; ++i) {
    cloud.Add({0.5 * (i % 20) + 1.0, 0.5 * (i / 20) - 2.5, -1.9f}, 0.2f);
  }
  cloud.Add({10, 0, -1.0}, 0.5f);    // front, foreground
  cloud.Add({-10, 0, -1.0}, 0.5f);   // rear, foreground
  cloud.Add({0, 10, -1.0}, 0.5f);    // left (90 deg)
  cloud.Add({10, 0, 6.0}, 0.5f);     // front, high background (building)
  cloud.Add({80, 0, -1.0}, 0.5f);    // front, beyond share range
  return cloud;
}

TEST(RoiTest, FullFrameIsUnfiltered) {
  const auto cloud = MakeRoiTestCloud();
  EXPECT_EQ(ExtractRoi(cloud, RoiCategory::kFullFrame).size(), cloud.size());
}

TEST(RoiTest, BackgroundSubtractionRemovesHighAndFar) {
  const auto cloud = MakeRoiTestCloud();
  const auto fg = SubtractBackground(cloud);
  // Building point (z 6.0 above ground) and 80 m point removed.
  EXPECT_EQ(fg.size(), cloud.size() - 2);
}

TEST(RoiTest, FrontSectorKeepsOnly120Degrees) {
  const auto cloud = MakeRoiTestCloud();
  const auto roi = ExtractRoi(cloud, RoiCategory::kFrontSector);
  bool has_front = false;
  for (const auto& p : roi) {
    const double az = std::abs(std::atan2(p.position.y, p.position.x));
    EXPECT_LE(az, geom::DegToRad(60.0) + 1e-9);
    if (p.position.x > 9.0 && std::abs(p.position.y) < 0.5) has_front = true;
  }
  EXPECT_TRUE(has_front);
}

TEST(RoiTest, ForwardLeadIsNarrower) {
  const auto cloud = MakeRoiTestCloud();
  EXPECT_LE(ExtractRoi(cloud, RoiCategory::kForwardLead).size(),
            ExtractRoi(cloud, RoiCategory::kFrontSector).size());
}

TEST(RoiTest, RoiOrderingMatchesFig12) {
  // Data volume ordering: full frame >= front sector >= forward lead.
  const auto cloud = MakeRoiTestCloud();
  const auto full = ExtractRoi(cloud, RoiCategory::kFullFrame).size();
  const auto front = ExtractRoi(cloud, RoiCategory::kFrontSector).size();
  const auto lead = ExtractRoi(cloud, RoiCategory::kForwardLead).size();
  EXPECT_GE(full, front);
  EXPECT_GE(front, lead);
}

// --- Cooper pipeline ---

struct TwoVehicleSetup {
  CooperConfig config;
  pc::PointCloud cloud_a, cloud_b;
  NavMetadata nav_a, nav_b;
  geom::Pose pose_a, pose_b;  // true vehicle poses
};

TwoVehicleSetup MakeSetup() {
  TwoVehicleSetup s;
  sim::Scene scene;
  // Truck occludes one car from A; B sees behind it.
  scene.AddObject(sim::ObjectClass::kTruck, sim::MakeTruckBox({14, 3.5, 0}, 0.0), 0.6);
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({22, 3.8, 0}, 0.0), 0.6);
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({11, -3.5, 0}, 180.0), 0.6);

  sim::LidarConfig lidar = sim::Hdl64Config();
  lidar.azimuth_steps = 720;
  s.config = eval::MakeCooperConfig(lidar);

  s.pose_a = geom::Pose::FromGpsImu({0, 0, 0}, {0, 0, 0});
  s.pose_b = geom::Pose::FromGpsImu({33, -3.0, 0}, {geom::DegToRad(180), 0, 0});
  Rng rng(3);
  const sim::LidarSimulator sim_lidar(lidar);
  s.cloud_a = sim_lidar.Scan(scene, s.pose_a, rng);
  s.cloud_b = sim_lidar.Scan(scene, s.pose_b, rng);
  const geom::Vec3 mount{0, 0, lidar.sensor_height};
  s.nav_a = NavMetadata{{0, 0, 0}, {0, 0, 0}, mount};
  s.nav_b = NavMetadata{{33, -3.0, 0}, {geom::DegToRad(180), 0, 0}, mount};
  return s;
}

TEST(CooperPipelineTest, ReconstructAlignsRemotePoints) {
  const auto s = MakeSetup();
  const CooperPipeline pipeline(s.config);
  const auto package = pipeline.MakePackage(2, 0.0, RoiCategory::kFullFrame,
                                            s.nav_b, s.cloud_b);
  const auto remote = pipeline.ReconstructRemoteCloud(s.nav_a, package);
  ASSERT_TRUE(remote.ok());
  // The occluded car at (22, 3.8) world is visible to B; after
  // reconstruction its points must appear near (22, 3.8) in A's frame
  // (A sits at the world origin, sensor at mount height).
  geom::Box3 car = sim::MakeCarBox({22, 3.8, 0}, 0.0).Expanded(0.3);
  car.center.z -= s.config.detector.voxel.min_bound.z * 0 +
                  1.73;  // sensor-frame z (HDL-64 mount height)
  EXPECT_GT(remote->CountInBox(car), 30u);
}

TEST(CooperPipelineTest, CooperativeDetectsOccludedCar) {
  const auto s = MakeSetup();
  const CooperPipeline pipeline(s.config);

  const auto single = pipeline.DetectSingleShot(s.cloud_a);
  const auto package = pipeline.MakePackage(2, 0.0, RoiCategory::kFullFrame,
                                            s.nav_b, s.cloud_b);
  const auto coop = pipeline.DetectCooperative(s.cloud_a, s.nav_a, package);
  ASSERT_TRUE(coop.ok());
  EXPECT_GT(coop->transmitter_points, 1000u);
  EXPECT_EQ(coop->fused_cloud.size(),
            s.cloud_a.size() + coop->transmitter_points);

  auto finds_occluded = [&](const std::vector<spod::Detection>& dets) {
    for (const auto& d : dets) {
      if (d.score >= 0.5 && std::abs(d.box.center.x - 22.0) < 2.0 &&
          std::abs(d.box.center.y - 3.8) < 2.0) {
        return true;
      }
    }
    return false;
  };
  EXPECT_FALSE(finds_occluded(single.detections));
  EXPECT_TRUE(finds_occluded(coop->fused.detections));
}

TEST(CooperPipelineTest, CorruptPackageReturnsError) {
  const auto s = MakeSetup();
  const CooperPipeline pipeline(s.config);
  ExchangePackage bad;
  bad.payload = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_FALSE(pipeline.DetectCooperative(s.cloud_a, s.nav_a, bad).ok());
}

TEST(CooperPipelineTest, RoiPackageShrinksPayload) {
  const auto s = MakeSetup();
  const CooperPipeline pipeline(s.config);
  const auto full = pipeline.MakePackage(2, 0.0, RoiCategory::kFullFrame,
                                         s.nav_b, s.cloud_b);
  const auto sector = pipeline.MakePackage(2, 0.0, RoiCategory::kFrontSector,
                                           s.nav_b, s.cloud_b);
  EXPECT_LT(sector.PayloadBytes(), full.PayloadBytes());
}

TEST(CooperPipelineTest, FullFramePayloadNearPaperBudget) {
  // §II-C: "point clouds can be compressed into 200 KB per scan" — our
  // codec on a full 64-beam scan should be the same order of magnitude.
  const auto s = MakeSetup();
  const CooperPipeline pipeline(s.config);
  const auto package = pipeline.MakePackage(2, 0.0, RoiCategory::kFullFrame,
                                            s.nav_b, s.cloud_b);
  EXPECT_LT(package.PayloadBytes(), 500u * 1024u);
  EXPECT_GT(package.PayloadBytes(), 20u * 1024u);
}

TEST(CooperPipelineTest, NonFiniteScanPointsAreDroppedAtEveryLevel) {
  const auto s = MakeSetup();
  const CooperPipeline pipeline(s.config);
  // NaN, +inf and -inf in each of x, y, z and reflectance, on a point in
  // the front sector, spread through the scan; plus (5, 0, -inf) last.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<pc::Point> poison;
  for (const double bad : {kNan, kInf, -kInf}) {
    for (int field = 0; field < 4; ++field) {
      pc::Point p{{5.0, 0.0, -1.0}, 0.5f};
      if (field == 0) p.position.x = bad;
      if (field == 1) p.position.y = bad;
      if (field == 2) p.position.z = bad;
      if (field == 3) p.reflectance = static_cast<float>(bad);
      poison.push_back(p);
    }
  }
  pc::PointCloud dirty;
  std::size_t next = 0;
  for (std::size_t i = 0; i < s.cloud_b.size(); ++i) {
    dirty.push_back(s.cloud_b[i]);
    if (i % 997 == 0 && next < poison.size()) dirty.push_back(poison[next++]);
  }
  ASSERT_EQ(next, poison.size());
  dirty.Add({5.0, 0.0, -kInf}, 0.5f);
  const std::size_t num_bad = poison.size() + 1;

  for (const auto level :
       {feat::ExchangeLevel::kRawCloud, feat::ExchangeLevel::kRoiCloud,
        feat::ExchangeLevel::kVoxelFeatures}) {
    SCOPED_TRACE(static_cast<int>(level));
    EXPECT_EQ(net::SerializePackage(pipeline.MakeLeveledPackage(
                  2, 0.0, RoiCategory::kFrontSector, level, s.nav_b, dirty)),
              net::SerializePackage(pipeline.MakeLeveledPackage(
                  2, 0.0, RoiCategory::kFrontSector, level, s.nav_b,
                  s.cloud_b)));
  }

  obs::SetEnabled(true);
  obs::Counter& dropped =
      obs::MetricsRegistry::Global().GetCounter("cooper.points_dropped_invalid");
  const std::uint64_t before = dropped.Value();
  EXPECT_EQ(net::SerializePackage(pipeline.MakePackage(
                2, 0.0, RoiCategory::kFrontSector, s.nav_b, dirty)),
            net::SerializePackage(pipeline.MakePackage(
                2, 0.0, RoiCategory::kFrontSector, s.nav_b, s.cloud_b)));
  EXPECT_EQ(dropped.Value() - before, num_bad);
  obs::SetEnabled(false);
}

// --- One fusion path: lane (Eq. 3) + merge-and-detect (Eq. 2) ---

TEST(CooperPipelineTest, ReceiverFromSenderAlignsWorldPoints) {
  // A world point observed by two vehicles must land at the same
  // coordinates in the receiver frame after the Eq. 3 transform.
  const geom::Vec3 world{12, -5, 1};
  const NavMetadata rx{{2, 3, 0}, {0.4, 0, 0}, {0, 0, 1.7}};
  const NavMetadata tx{{-7, 9, 0}, {-1.1, 0, 0}, {0.3, 0, 1.9}};
  const geom::Vec3 seen_by_rx = rx.SensorPose().Inverse() * world;
  const geom::Vec3 aligned = CooperPipeline::ReceiverFromSender(rx, tx) *
                             (tx.SensorPose().Inverse() * world);
  EXPECT_NEAR(aligned.x, seen_by_rx.x, 1e-9);
  EXPECT_NEAR(aligned.y, seen_by_rx.y, 1e-9);
  EXPECT_NEAR(aligned.z, seen_by_rx.z, 1e-9);
}

TEST(CooperPipelineTest, FusedCloudIsDensifiedLocalPlusTransmitter) {
  // 16 beams, so densify changes the local point count: the fused cloud is
  // exactly the densified local scan plus the lane's points.
  sim::Scenario scenario = sim::MakeTjScenario(2);
  scenario.lidar.azimuth_steps = 900;
  const sim::LidarSimulator lidar(scenario.lidar);
  Rng rng(scenario.seed);
  const geom::Vec3 mount{0, 0, scenario.lidar.sensor_height};
  const auto& ego = scenario.viewpoints[0];
  const auto& peer = scenario.viewpoints[1];
  const pc::PointCloud local = lidar.Scan(scenario.scene, ego.ToPose(), rng);
  const pc::PointCloud remote = lidar.Scan(scenario.scene, peer.ToPose(), rng);
  const CooperPipeline pipeline(eval::MakeCooperConfig(scenario.lidar));
  const auto package = pipeline.MakePackage(
      1, 0.0, RoiCategory::kFullFrame,
      NavMetadata{peer.position, peer.attitude, mount}, remote);
  const auto coop = pipeline.DetectCooperative(
      local, NavMetadata{ego.position, ego.attitude, mount}, package);
  ASSERT_TRUE(coop.ok());
  const std::size_t densified = pipeline.detector().Densify(local).size();
  EXPECT_NE(densified, local.size());
  EXPECT_GT(coop->transmitter_points, 0u);
  EXPECT_EQ(coop->fused_cloud.size(), densified + coop->transmitter_points);
}

TEST(CooperPipelineTest, MergeAndDetectAppendsLanesInOrder) {
  // Eq. 2 is a plain union: the densified local cloud, then every lane's
  // points untouched, in the order the lanes are given.
  const CooperPipeline pipeline(eval::MakeCooperConfig(sim::Vlp16Config()));
  pc::PointCloud local, a, b;
  local.Add({4, 0, -1}, 0.5f);
  a.Add({1, 1, 1}, 0.1f);
  b.Add({2, 2, 2}, 0.2f);
  b.Add({3, 3, 3}, 0.3f);
  const CooperOutput out = pipeline.MergeAndDetect(local, {&b, &a}, "merge");
  const pc::PointCloud densified = pipeline.detector().Densify(local);
  EXPECT_EQ(out.transmitter_points, 3u);
  ASSERT_EQ(out.fused_cloud.size(), densified.size() + 3);
  for (std::size_t i = 0; i < densified.size(); ++i) {
    EXPECT_EQ(out.fused_cloud[i].position.x, densified[i].position.x) << i;
  }
  const std::vector<pc::Point> tail = {b[0], b[1], a[0]};
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const pc::Point& p = out.fused_cloud[densified.size() + i];
    EXPECT_EQ(p.position.x, tail[i].position.x) << i;
    EXPECT_EQ(p.position.y, tail[i].position.y) << i;
    EXPECT_EQ(p.position.z, tail[i].position.z) << i;
    EXPECT_EQ(p.reflectance, tail[i].reflectance) << i;
  }
}

}  // namespace
}  // namespace cooper::core
