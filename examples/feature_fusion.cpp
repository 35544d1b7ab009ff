// Feature-level cooperative exchange (the F-Cooper rung of the ladder).
//
// Three cars share one junction.  Each cooperator offers its scan at all
// three exchange levels — raw cloud, ROI cloud, voxel features — and the
// bandwidth-tiered planner picks a level per cooperator from the DSRC
// airtime budget.  The ego session then ingests the planned packages over
// the real wire format and runs one fused detection pass: cloud-level
// packages merge points, feature-level packages are aligned into the ego
// grid and merge as pseudo-points (one per site the cooperator saw).
#include <cstdio>

#include "core/cooper.h"
#include "core/demand.h"
#include "core/session.h"
#include "eval/experiment.h"
#include "feat/planner.h"
#include "net/serialize.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

using namespace cooper;

int main() {
  sim::Scenario scenario = sim::MakeTjScenario(2);
  const sim::LidarSimulator lidar(scenario.lidar);
  Rng rng(scenario.seed);
  const geom::Vec3 mount{0, 0, scenario.lidar.sensor_height};

  std::vector<pc::PointCloud> clouds;
  std::vector<core::NavMetadata> navs;
  for (const sim::VehicleState& vp : scenario.viewpoints) {
    clouds.push_back(lidar.Scan(scenario.scene, vp.ToPose(), rng));
    navs.push_back(core::NavMetadata{vp.position, vp.attitude, mount});
  }

  core::CooperConfig cfg = eval::MakeCooperConfig(scenario.lidar);
  core::CooperativeSession session(cfg, core::SessionConfig{});
  const core::CooperPipeline& pipeline = session.pipeline();

  // 1. Every cooperator quotes its payload size at each level.
  const feat::ExchangeLevel kLevels[] = {feat::ExchangeLevel::kRawCloud,
                                         feat::ExchangeLevel::kRoiCloud,
                                         feat::ExchangeLevel::kVoxelFeatures};
  const core::RoiCategory roi = core::RoiCategory::kFrontSector;
  std::vector<feat::CooperatorDemand> demands;
  std::printf("cooperator quotes (payload bytes)\n");
  std::printf("  sender |      raw |      ROI | features\n");
  for (std::uint32_t k = 1; k < clouds.size(); ++k) {
    std::size_t bytes[3];
    std::size_t i = 0;
    for (const feat::ExchangeLevel level : kLevels) {
      bytes[i++] = pipeline
                       .MakeLeveledPackage(k, 10.0, roi, level, navs[k],
                                           clouds[k])
                       .payload.size();
    }
    demands.push_back(
        core::MakeCooperatorDemand(k, roi, bytes[0], bytes[1], bytes[2]));
    std::printf("  %6u | %8zu | %8zu | %8zu  (features %.1fx smaller than ROI)\n",
                k, bytes[0], bytes[1], bytes[2],
                static_cast<double>(bytes[1]) / static_cast<double>(bytes[2]));
  }

  // 2. The planner fits the fleet into the frame's airtime budget.  A
  //    congested channel (low effective rate) degrades raw -> ROI -> features.
  std::printf("\nexchange plans by channel rate\n");
  for (const double rate_mbps : {27.0, 6.0, 1.0}) {
    feat::PlannerConfig planner;
    planner.channel.data_rate_mbps = rate_mbps;
    const feat::ExchangePlan plan = feat::PlanExchange(planner, demands);
    std::printf("  %4.1f Mbps -> ", rate_mbps);
    for (const feat::PlanEntry& e : plan.entries) {
      std::printf("[%u: %s] ", e.sender_id, feat::ExchangeLevelName(e.level));
    }
    std::printf(" airtime %.1f / budget %.1f ms%s\n", plan.airtime_ms,
                plan.budget_ms, plan.over_budget ? "  OVER BUDGET" : "");
  }

  // 3. Ship the congested plan (everyone at voxel features) through the wire
  //    and fuse.  The level byte rides in the package header, so the session
  //    routes each payload to the right decoder on its own.
  for (std::uint32_t k = 1; k < clouds.size(); ++k) {
    const core::ExchangePackage package = pipeline.MakeLeveledPackage(
        k, 10.0, roi, feat::ExchangeLevel::kVoxelFeatures, navs[k], clouds[k]);
    const Status status =
        session.ReceiveWire(net::SerializePackage(package), 10.0);
    if (!status.ok()) std::printf("delivery %u failed\n", k);
  }

  const spod::SpodResult solo = pipeline.DetectSingleShot(clouds[0]);
  const core::CooperOutput fused =
      session.DetectCooperative(clouds[0], navs[0], 10.0);
  std::printf("\nfused detection at the feature level\n");
  std::printf("  cooperators fused      : %zu\n", session.num_cooperators());
  std::printf("  pseudo-points gained   : %zu\n", fused.transmitter_points);
  std::printf("  single-shot detections : %zu\n", solo.detections.size());
  std::printf("  fused detections       : %zu\n",
              fused.fused.detections.size());
  return 0;
}
