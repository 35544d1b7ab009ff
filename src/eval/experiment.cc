#include "eval/experiment.h"

#include <algorithm>
#include <cmath>

#include "sim/lidar.h"
#include "sim/sensors.h"

namespace cooper::eval {
namespace {

// Ground-truth car boxes of a scene expressed in a viewpoint's sensor frame.
std::vector<geom::Box3> CarBoxesInSensorFrame(const sim::Scene& scene,
                                              const geom::Pose& sensor_pose) {
  const geom::Pose world_to_sensor = sensor_pose.Inverse();
  std::vector<geom::Box3> out;
  for (const auto& obj : scene.objects()) {
    if (obj.cls != sim::ObjectClass::kCar) continue;
    out.push_back(obj.box.Transformed(world_to_sensor));
  }
  return out;
}

std::vector<int> CarIds(const sim::Scene& scene) {
  std::vector<int> out;
  for (const auto& obj : scene.objects()) {
    if (obj.cls == sim::ObjectClass::kCar) out.push_back(obj.id);
  }
  return out;
}

geom::Pose SensorPoseOf(const sim::VehicleState& v, double sensor_height) {
  return v.ToPose() *
         geom::Pose(geom::Mat3::Identity(), {0.0, 0.0, sensor_height});
}

}  // namespace

core::CooperConfig MakeCooperConfig(const sim::LidarConfig& lidar) {
  core::CooperConfig cfg;
  cfg.detector = lidar.beams >= 32 ? spod::MakeDenseSpodConfig()
                                   : spod::MakeSparseSpodConfig();
  cfg.detector.spherical.rows = lidar.beams * 2;  // densification grid
  // The projection must not be coarser than the sensor, or it would discard
  // azimuth detail during densification.
  cfg.detector.spherical.cols = std::max(512, lidar.azimuth_steps);
  cfg.detector.spherical.fov_up_deg = lidar.fov_up_deg;
  cfg.detector.spherical.fov_down_deg = lidar.fov_down_deg;
  cfg.sensor = spod::MakeSensorResolution(lidar.beams, lidar.fov_up_deg,
                                          lidar.fov_down_deg,
                                          lidar.azimuth_steps);
  return cfg;
}

CaseOutcome RunCoopCase(const sim::Scenario& scenario, const sim::CoopCase& cc,
                        const ExperimentOptions& options) {
  const auto& va = scenario.viewpoints[cc.a];
  const auto& vb = scenario.viewpoints[cc.b];

  CaseOutcome outcome;
  outcome.scenario_name = scenario.name;
  outcome.single_a = va.name;
  outcome.single_b = vb.name;
  outcome.case_name = va.name + "+" + vb.name;
  outcome.delta_d = sim::CaseDeltaD(scenario, cc);

  Rng rng(scenario.seed * 7919 + options.seed_offset +
          static_cast<std::uint64_t>(cc.a) * 131 +
          static_cast<std::uint64_t>(cc.b));
  Rng scan_rng_a = rng.Fork();
  Rng scan_rng_b = rng.Fork();
  Rng nav_rng = rng.Fork();
  Rng skew_rng = rng.Fork();

  const sim::LidarSimulator lidar(scenario.lidar);
  pc::PointCloud cloud_a = lidar.Scan(scenario.scene, va.ToPose(), scan_rng_a);
  pc::PointCloud cloud_b = lidar.Scan(scenario.scene, vb.ToPose(), scan_rng_b);
  const bool front_only = options.front_half_fov_deg > 0.0;
  const double half_fov = geom::DegToRad(options.front_half_fov_deg);
  if (front_only) {
    cloud_a = cloud_a.FilterAzimuthSector(0.0, half_fov);
    cloud_b = cloud_b.FilterAzimuthSector(0.0, half_fov);
  }
  outcome.points_a = cloud_a.size();
  outcome.points_b = cloud_b.size();

  // Navigation readings that go into the exchange package.
  const sim::GpsImuModel gps_imu;
  sim::NavState nav_a{va.position, va.attitude};
  sim::NavState nav_b{vb.position, vb.attitude};
  if (options.use_measured_nav) {
    nav_a = gps_imu.Measure(va.position, va.attitude, nav_rng);
    nav_b = gps_imu.Measure(vb.position, vb.attitude, nav_rng);
  }
  nav_b = sim::ApplyGpsSkew(nav_b, options.skew, skew_rng);

  const core::CooperConfig cfg = MakeCooperConfig(scenario.lidar);
  const core::CooperPipeline pipeline(cfg);

  const geom::Vec3 mount{0.0, 0.0, scenario.lidar.sensor_height};
  const core::NavMetadata meta_a{nav_a.position, nav_a.attitude, mount};
  const core::NavMetadata meta_b{nav_b.position, nav_b.attitude, mount};

  // Single shots.
  outcome.result_a = pipeline.DetectSingleShot(cloud_a);
  outcome.result_b = pipeline.DetectSingleShot(cloud_b);

  // Cooperative path: b broadcasts, a receives and fuses.
  const core::ExchangePackage package =
      pipeline.MakePackage(static_cast<std::uint32_t>(cc.b), 0.0, options.roi,
                           meta_b, cloud_b);
  outcome.package_payload_bytes = package.PayloadBytes();
  auto coop = pipeline.DetectCooperative(cloud_a, meta_a, package);
  COOPER_CHECK(coop.ok());
  outcome.result_coop = std::move(coop).value().fused;

  // Ground-truth matching.  Boxes are expressed with the vehicles' TRUE
  // poses — evaluation must not inherit the nav error under test.
  const geom::Pose sp_a = SensorPoseOf(va, scenario.lidar.sensor_height);
  const geom::Pose sp_b = SensorPoseOf(vb, scenario.lidar.sensor_height);
  const auto gt_a = CarBoxesInSensorFrame(scenario.scene, sp_a);
  const auto gt_b = CarBoxesInSensorFrame(scenario.scene, sp_b);
  const auto ids = CarIds(scenario.scene);

  const auto match_a = MatchDetections(outcome.result_a.detections, gt_a);
  const auto match_b = MatchDetections(outcome.result_b.detections, gt_b);
  const auto match_coop = MatchDetections(outcome.result_coop.detections, gt_a);

  for (std::size_t i = 0; i < ids.size(); ++i) {
    TargetOutcome t;
    t.target_id = ids[i];
    t.range_a = gt_a[i].center.NormXY();
    t.range_b = gt_b[i].center.NormXY();
    auto in_sector = [&](const geom::Box3& box) {
      if (!front_only) return true;
      const double az = std::atan2(box.center.y, box.center.x);
      return std::abs(az) <= half_fov;
    };
    t.in_range_a = t.range_a <= options.detection_range && in_sector(gt_a[i]);
    t.in_range_b = t.range_b <= options.detection_range && in_sector(gt_b[i]);
    t.score_a = match_a[i].matched ? match_a[i].score : 0.0;
    t.score_b = match_b[i].matched ? match_b[i].score : 0.0;
    t.score_coop = match_coop[i].matched ? match_coop[i].score : 0.0;
    t.detected_a = t.score_a >= kScoreThreshold;
    t.detected_b = t.score_b >= kScoreThreshold;
    t.detected_coop = t.score_coop >= kScoreThreshold;
    outcome.targets.push_back(t);
  }
  return outcome;
}

std::vector<CaseOutcome> RunAllCases(const std::vector<sim::Scenario>& scenarios,
                                     const ExperimentOptions& options) {
  std::vector<CaseOutcome> out;
  for (const auto& sc : scenarios) {
    for (const auto& cc : sc.cases) {
      out.push_back(RunCoopCase(sc, cc, options));
    }
  }
  return out;
}

}  // namespace cooper::eval
