// Cross-module integration tests: full Cooper pipeline on library scenarios,
// checking the system-level invariants the paper's evaluation rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "eval/experiment.h"
#include "eval/stats.h"
#include "net/serialize.h"

namespace cooper {
namespace {

using eval::CaseOutcome;
using eval::ExperimentOptions;

const CaseOutcome& TJunctionOutcome() {
  static const CaseOutcome outcome = [] {
    const auto sc = sim::MakeKittiTJunction();
    return eval::RunCoopCase(sc, sc.cases[0]);
  }();
  return outcome;
}

const CaseOutcome& ParkingLotOutcome() {
  static const CaseOutcome outcome = [] {
    const auto sc = sim::MakeTjScenario(1);
    return eval::RunCoopCase(sc, sc.cases[0]);
  }();
  return outcome;
}

TEST(IntegrationTest, CooperDetectsAtLeastAsManyAsEitherSingle) {
  for (const auto* outcome : {&TJunctionOutcome(), &ParkingLotOutcome()}) {
    const auto s = eval::Summarize(*outcome);
    EXPECT_GE(s.detected_coop, s.detected_a) << outcome->scenario_name;
    EXPECT_GE(s.detected_coop, s.detected_b) << outcome->scenario_name;
  }
}

TEST(IntegrationTest, CooperExtendsSensingArea) {
  // Some targets are out of detection area for one viewpoint but in the
  // cooperative result — the paper's "extended sensing range" claim.
  const auto& outcome = TJunctionOutcome();
  int gained = 0;
  for (const auto& t : outcome.targets) {
    if (!t.in_range_b && t.in_range_a && t.detected_coop) ++gained;
    if (!t.in_range_a && t.in_range_b && t.detected_coop) ++gained;
  }
  EXPECT_GT(gained, 0);
}

TEST(IntegrationTest, CooperRecoversAtLeastOneMissedTarget) {
  // Objects missed by both single shots ("hard") get detected after fusion
  // somewhere in the scenario suite.  The long-baseline parking-lot case
  // (car1+car4) is where complementary coverage recovers hidden cars.
  const auto sc = sim::MakeTjScenario(1);
  const auto far_case = eval::RunCoopCase(sc, sc.cases[2]);
  int recovered = 0;
  for (const auto* outcome :
       {&TJunctionOutcome(), &ParkingLotOutcome(), &far_case}) {
    for (const auto& t : outcome->targets) {
      if (!t.detected_a && !t.detected_b && t.detected_coop) ++recovered;
    }
  }
  EXPECT_GT(recovered, 0);
}

TEST(IntegrationTest, FusedCloudIsUnionOfSingleShots) {
  const auto& outcome = ParkingLotOutcome();
  EXPECT_GT(outcome.points_a, 1000u);
  EXPECT_GT(outcome.points_b, 1000u);
  EXPECT_GT(outcome.result_coop.num_input_points,
            outcome.result_a.num_input_points);
}

TEST(IntegrationTest, RunCoopCaseIsDeterministic) {
  const auto sc = sim::MakeTjScenario(1);
  const auto a = eval::RunCoopCase(sc, sc.cases[0]);
  const auto b = eval::RunCoopCase(sc, sc.cases[0]);
  ASSERT_EQ(a.targets.size(), b.targets.size());
  for (std::size_t i = 0; i < a.targets.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.targets[i].score_a, b.targets[i].score_a);
    EXPECT_DOUBLE_EQ(a.targets[i].score_coop, b.targets[i].score_coop);
  }
  EXPECT_EQ(a.package_payload_bytes, b.package_payload_bytes);
}

TEST(IntegrationTest, SeedOffsetChangesScansButNotStory) {
  const auto sc = sim::MakeTjScenario(1);
  ExperimentOptions opt;
  opt.seed_offset = 1234;
  const auto alt = eval::RunCoopCase(sc, sc.cases[0], opt);
  const auto& base = ParkingLotOutcome();
  // Different noise draws -> different point counts; same coop dominance.
  const auto s_alt = eval::Summarize(alt);
  EXPECT_GE(s_alt.detected_coop, s_alt.detected_a);
  EXPECT_NE(alt.points_a, base.points_a);
}

TEST(IntegrationTest, GpsDriftWithinBoundsIsTolerated) {
  const auto sc = sim::MakeTjScenario(1);
  ExperimentOptions skewed;
  skewed.skew = sim::GpsSkewMode::kBothAxesMax;
  const auto drift = eval::RunCoopCase(sc, sc.cases[0], skewed);
  const auto& base = ParkingLotOutcome();
  const auto s_base = eval::Summarize(base);
  const auto s_drift = eval::Summarize(drift);
  // Fusion robustness (Fig. 10): drift at the bound costs at most one
  // detection in this scene.
  EXPECT_GE(s_drift.detected_coop, s_base.detected_coop - 1);
}

TEST(IntegrationTest, PerfectNavMatchesMeasuredNavClosely) {
  const auto sc = sim::MakeTjScenario(1);
  ExperimentOptions perfect;
  perfect.use_measured_nav = false;
  const auto ideal = eval::RunCoopCase(sc, sc.cases[0], perfect);
  const auto s_ideal = eval::Summarize(ideal);
  const auto s_measured = eval::Summarize(ParkingLotOutcome());
  EXPECT_LE(std::abs(s_ideal.detected_coop - s_measured.detected_coop), 1);
}

TEST(IntegrationTest, PackagePayloadSurvivesWireRoundTrip) {
  // Exchange package -> wire bytes -> package -> cloud, end to end.
  const auto sc = sim::MakeTjScenario(1);
  const auto cfg = eval::MakeCooperConfig(sc.lidar);
  const core::CooperPipeline pipeline(cfg);
  Rng rng(sc.seed);
  const sim::LidarSimulator lidar(sc.lidar);
  const auto cloud = lidar.Scan(sc.scene, sc.viewpoints[0].ToPose(), rng);
  const core::NavMetadata nav{sc.viewpoints[0].position,
                              sc.viewpoints[0].attitude,
                              {0, 0, sc.lidar.sensor_height}};
  const auto package = pipeline.MakePackage(1, 0.5, core::RoiCategory::kFullFrame,
                                            nav, cloud);
  const auto wire = net::SerializePackage(package);
  const auto back = net::DeserializePackage(wire);
  ASSERT_TRUE(back.ok());
  const auto decoded = core::DecodePackage(*back);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), cloud.size());
}

TEST(IntegrationTest, DetectionTimeOverheadIsBounded) {
  // Fig. 9's qualitative claim: Cooper costs more than single shot, but far
  // less than running the detector twice.  Both sides are timed over the
  // same call: DetectCooperative densifies each source cloud before the
  // merge and hands its fused cloud to DetectPreprocessed, so the single
  // shot is densified up front too and each side times one DetectPreprocessed
  // (preprocess, cluster, proposals).  Best of five runs per side damps
  // scheduler noise on these millisecond timings.
  const auto sc = sim::MakeTjScenario(1);
  const auto& va = sc.viewpoints[sc.cases[0].a];
  const auto& vb = sc.viewpoints[sc.cases[0].b];
  const geom::Vec3 mount{0, 0, sc.lidar.sensor_height};
  const sim::LidarSimulator lidar(sc.lidar);
  Rng rng(sc.seed);
  const auto cloud_a = lidar.Scan(sc.scene, va.ToPose(), rng);
  const auto cloud_b = lidar.Scan(sc.scene, vb.ToPose(), rng);
  const core::NavMetadata nav_a{va.position, va.attitude, mount};
  const core::NavMetadata nav_b{vb.position, vb.attitude, mount};
  const core::CooperPipeline pipeline(eval::MakeCooperConfig(sc.lidar));
  const auto package = pipeline.MakePackage(
      2, 0.0, core::RoiCategory::kFullFrame, nav_b, cloud_b);
  const pc::PointCloud dense_a = pipeline.detector().Densify(cloud_a);
  const auto coop = pipeline.DetectCooperative(cloud_a, nav_a, package);
  ASSERT_TRUE(coop.ok());
  const auto detect_us = [&](const pc::PointCloud& cloud) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)pipeline.detector().DetectPreprocessed(cloud);
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  double single_us = 0.0, coop_us = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double s = detect_us(dense_a);
    const double c = detect_us(coop->fused_cloud);
    single_us = rep == 0 ? s : std::min(single_us, s);
    coop_us = rep == 0 ? c : std::min(coop_us, c);
  }
  EXPECT_GT(coop_us, 0.8 * single_us);
  EXPECT_LT(coop_us, 4.0 * single_us);
}

TEST(IntegrationTest, DetectionIsThreadCountInvariant) {
  // The threading contract (DESIGN.md "Threading model"): every parallel hot
  // path chunks deterministically, so the full pipeline — simulation, codec,
  // reconstruction, fusion, detection — produces bit-identical output at any
  // thread count.
  const auto sc = sim::MakeTjScenario(1);
  const geom::Vec3 mount{0, 0, sc.lidar.sensor_height};
  auto run = [&](int threads) {
    sim::LidarConfig lidar_cfg = sc.lidar;
    lidar_cfg.num_threads = threads;
    core::CooperConfig cfg = eval::MakeCooperConfig(sc.lidar);
    cfg.num_threads = threads;
    const core::CooperPipeline pipeline(cfg);
    const sim::LidarSimulator lidar(lidar_cfg);
    Rng rng(sc.seed);
    const auto cloud_a = lidar.Scan(sc.scene, sc.viewpoints[0].ToPose(), rng);
    const auto cloud_b = lidar.Scan(sc.scene, sc.viewpoints[1].ToPose(), rng);
    const core::NavMetadata nav_a{sc.viewpoints[0].position,
                                  sc.viewpoints[0].attitude, mount};
    const core::NavMetadata nav_b{sc.viewpoints[1].position,
                                  sc.viewpoints[1].attitude, mount};
    const auto package = pipeline.MakePackage(
        2, 0.0, core::RoiCategory::kFullFrame, nav_b, cloud_b);
    return pipeline.DetectCooperative(cloud_a, nav_a, package);
  };
  const auto base = run(1);
  ASSERT_TRUE(base.ok());
  for (const int threads : {2, 8}) {
    const auto alt = run(threads);
    ASSERT_TRUE(alt.ok()) << threads;
    // The fused cloud must be point-for-point identical...
    ASSERT_EQ(alt->fused_cloud.size(), base->fused_cloud.size()) << threads;
    for (std::size_t i = 0; i < base->fused_cloud.size(); i += 97) {
      EXPECT_EQ(alt->fused_cloud[i].position.x, base->fused_cloud[i].position.x);
      EXPECT_EQ(alt->fused_cloud[i].position.y, base->fused_cloud[i].position.y);
      EXPECT_EQ(alt->fused_cloud[i].position.z, base->fused_cloud[i].position.z);
    }
    // ...and so must every detection box, score and support count.
    ASSERT_EQ(alt->fused.detections.size(), base->fused.detections.size())
        << threads;
    for (std::size_t i = 0; i < base->fused.detections.size(); ++i) {
      const auto& d = alt->fused.detections[i];
      const auto& e = base->fused.detections[i];
      EXPECT_EQ(d.box.center.x, e.box.center.x) << threads;
      EXPECT_EQ(d.box.center.y, e.box.center.y) << threads;
      EXPECT_EQ(d.box.length, e.box.length) << threads;
      EXPECT_EQ(d.box.width, e.box.width) << threads;
      EXPECT_EQ(d.box.height, e.box.height) << threads;
      EXPECT_EQ(d.box.yaw, e.box.yaw) << threads;
      EXPECT_EQ(d.score, e.score) << threads;
      EXPECT_EQ(d.cls, e.cls) << threads;
      EXPECT_EQ(d.num_points, e.num_points) << threads;
    }
  }
}

TEST(IntegrationTest, ScoresAreCalibratedlyBounded) {
  for (const auto* outcome : {&TJunctionOutcome(), &ParkingLotOutcome()}) {
    for (const auto& t : outcome->targets) {
      for (const double s : {t.score_a, t.score_b, t.score_coop}) {
        EXPECT_GE(s, 0.0);
        EXPECT_LT(s, 1.0);
      }
    }
  }
}

TEST(IntegrationTest, EveryScenarioHasPaperScaleTargets) {
  auto scenarios = sim::AllKittiScenarios();
  for (auto& s : sim::AllTjScenarios()) scenarios.push_back(s);
  for (const auto& sc : scenarios) {
    std::size_t cars = 0;
    for (const auto& o : sc.scene.objects()) {
      cars += o.cls == sim::ObjectClass::kCar ? 1 : 0;
    }
    EXPECT_GE(cars, 6u) << sc.name;   // Fig. 3/6 tables have 7-17 rows
    EXPECT_LE(cars, 24u) << sc.name;
  }
}

}  // namespace
}  // namespace cooper
