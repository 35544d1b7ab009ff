// Quickstart: two connected vehicles, one occluded car, one fused frame.
//
// Builds a small street scene where a parked truck hides a car from
// vehicle A but not from vehicle B, then runs the full Cooper path:
// scan -> ROI -> compress -> exchange package -> reconstruct (Eq. 1-3) ->
// merge (Eq. 2) -> SPOD detection, and prints single-shot vs cooperative
// results.
#include <chrono>
#include <cstdio>

#include "core/cooper.h"
#include "eval/bev_render.h"
#include "eval/experiment.h"
#include "sim/lidar.h"
#include "sim/scenario.h"
#include "sim/sensors.h"

using namespace cooper;

int main() {
  // --- Build a scene: ego road with an occluding truck and three cars. ---
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kTruck,
                  sim::MakeTruckBox({14.0, 3.5, 0.0}, 0.0), 0.6);
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({22.0, 3.8, 0.0}, 0.0));
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12.0, -3.5, 0.0}, 180.0));
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({30.0, -3.5, 0.0}, 180.0));

  // Vehicle A at the origin, vehicle B 25 m ahead in the oncoming lane,
  // facing back toward A.
  const sim::VehicleState vehicle_a{"A", {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
  const sim::VehicleState vehicle_b{"B", {34.0, -3.5, 0.0}, {3.14159, 0.0, 0.0}};

  // --- Scan with a 64-beam sensor. ---
  const sim::LidarConfig lidar_cfg = sim::Hdl64Config();
  const sim::LidarSimulator lidar(lidar_cfg);
  Rng rng(7);
  const pc::PointCloud cloud_a = lidar.Scan(scene, vehicle_a.ToPose(), rng);
  const pc::PointCloud cloud_b = lidar.Scan(scene, vehicle_b.ToPose(), rng);
  std::printf("vehicle A scanned %zu points, vehicle B scanned %zu points\n",
              cloud_a.size(), cloud_b.size());

  // --- Cooper pipeline. ---
  const core::CooperConfig cfg = eval::MakeCooperConfig(lidar_cfg);
  const core::CooperPipeline pipeline(cfg);

  const geom::Vec3 mount{0.0, 0.0, lidar_cfg.sensor_height};
  const core::NavMetadata nav_a{vehicle_a.position, vehicle_a.attitude, mount};
  const core::NavMetadata nav_b{vehicle_b.position, vehicle_b.attitude, mount};

  // Single-shot perception on A.
  const auto t0 = std::chrono::steady_clock::now();
  const spod::SpodResult single = pipeline.DetectSingleShot(cloud_a);
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("\nsingle shot (A): %zu detections\n", single.detections.size());
  for (const auto& d : single.detections) {
    std::printf("  box at (%6.1f, %6.1f) score %.2f  (%zu pts)\n",
                d.box.center.x, d.box.center.y, d.score, d.num_points);
  }

  // B broadcasts a full-frame package; A fuses and re-detects.
  const core::ExchangePackage package = pipeline.MakePackage(
      /*sender_id=*/2, /*timestamp_s=*/0.0, core::RoiCategory::kFullFrame,
      nav_b, cloud_b);
  std::printf("\nexchange package: %.2f Mbit compressed payload\n",
              package.PayloadMbit());

  const auto t2 = std::chrono::steady_clock::now();
  const auto coop = pipeline.DetectCooperative(cloud_a, nav_a, package);
  const auto t3 = std::chrono::steady_clock::now();
  if (!coop.ok()) {
    std::printf("cooperative detection failed: %s\n",
                coop.status().ToString().c_str());
    return 1;
  }
  std::printf("\nCooper (A+B fused, %zu points): %zu detections\n",
              coop->fused_cloud.size(), coop->fused.detections.size());
  for (const auto& d : coop->fused.detections) {
    std::printf("  box at (%6.1f, %6.1f) score %.2f  (%zu pts)\n",
                d.box.center.x, d.box.center.y, d.score, d.num_points);
  }
  using Ms = std::chrono::duration<double, std::milli>;
  std::printf("\ndetection time: single %.1f ms, Cooper %.1f ms (reconstruct, "
              "merge and detect)\n",
              Ms(t1 - t0).count(), Ms(t3 - t2).count());

  // Bird's-eye view of the fused frame (the textual Fig. 2c).
  eval::BevRenderConfig render_cfg;
  render_cfg.min_x = -5.0;
  render_cfg.max_x = 45.0;
  render_cfg.min_y = -12.0;
  render_cfg.max_y = 12.0;
  eval::BevCanvas canvas(render_cfg);
  canvas.DrawPoints(coop->fused_cloud);
  std::vector<geom::Box3> gt;
  for (const auto& obj : scene.objects()) {
    geom::Box3 b = obj.box;
    b.center.z -= lidar_cfg.sensor_height;  // world -> A's sensor frame
    gt.push_back(b);
  }
  canvas.DrawGroundTruth(gt);
  canvas.DrawDetections(coop->fused.detections);
  canvas.DrawSensor();
  std::printf("\n%s", canvas.Render().c_str());
  return 0;
}
