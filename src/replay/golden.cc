#include "replay/golden.h"

#include <utility>

#include "core/session.h"
#include "feat/feature_map.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

namespace cooper::replay {

namespace {

core::NavMetadata NavOf(const sim::VehicleState& v, double sensor_height) {
  return core::NavMetadata{v.position, v.attitude,
                           geom::Vec3{0.0, 0.0, sensor_height}};
}

/// KITTI T-junction, ego + one cooperator, clean channel.  The package is
/// fragmented and fed frame-by-frame straight into the session — the
/// `ReceiveFrame` boundary without transport retransmission on top.  Two
/// steps share one ego scan (steady ego, refreshed cooperator package), so
/// the trace also exercises scan deduplication and package replacement.
Result<std::vector<std::uint8_t>> RecordTJunction2() {
  sim::Scenario scenario = sim::MakeKittiTJunction();
  // Thinned sensor: 32 beams keeps the dense detector configuration
  // (MakeCooperConfig switches at 32) while the raw-scan record stays small
  // enough to commit.
  scenario.lidar.beams = 32;
  scenario.lidar.azimuth_steps = 256;

  TraceConfig config;
  config.name = "kitti-tj-2v";
  config.lidar = scenario.lidar;
  config.scan_seed = 811;

  const core::CooperConfig cfg = MakeReplayCooperConfig(config, {});
  const core::SessionConfig session_cfg = MakeReplaySessionConfig(config, {});
  core::CooperativeSession session(cfg, session_cfg);
  TraceRecorder rec(config);

  const sim::LidarSimulator lidar(scenario.lidar);
  Rng scan_rng(config.scan_seed);
  const sim::VehicleState& ego = scenario.viewpoints[0];
  const sim::VehicleState& peer = scenario.viewpoints[1];
  const pc::PointCloud ego_cloud =
      lidar.Scan(scenario.scene, ego.ToPose(), scan_rng);
  const pc::PointCloud peer_cloud =
      lidar.Scan(scenario.scene, peer.ToPose(), scan_rng);
  const core::NavMetadata ego_nav = NavOf(ego, scenario.lidar.sensor_height);
  const core::NavMetadata peer_nav = NavOf(peer, scenario.lidar.sensor_height);

  const std::uint32_t scan_id = rec.AddScan(ego_cloud);
  constexpr std::uint32_t kPeerId = 2;

  for (int step = 0; step < 2; ++step) {
    const double now_s = 10.0 + step;  // 1 Hz exchange cadence
    const core::ExchangePackage package = session.pipeline().MakePackage(
        kPeerId, now_s - 0.05, core::RoiCategory::kFrontSector, peer_nav,
        peer_cloud);
    const std::vector<std::uint8_t> wire = net::SerializePackage(package);
    COOPER_ASSIGN_OR_RETURN(
        auto frames,
        net::FragmentPackage(wire, kPeerId, static_cast<std::uint32_t>(step + 1),
                             cfg.transport.mtu_bytes));
    double frame_s = now_s - 0.04;
    for (const auto& frame : frames) {
      rec.RecordWireFrame(frame_s, frame);
      (void)session.ReceiveFrame(frame, frame_s);
      frame_s += 1e-4;
    }
    const core::CooperOutput out =
        session.DetectCooperative(ego_cloud, ego_nav, now_s);
    rec.RecordStep(now_s, scan_id, ego_nav, out);
  }
  return rec.Finish().bytes();
}

/// T&J parking lot, ego + four cooperators over a faulty channel.  Every
/// frame goes through `net::Transport` (fragmentation, NACK retransmission,
/// backoff) with a seeded `FaultInjector`; the frame tap mirrors the exact
/// post-fault arrival stream into both the recorder and the session, and the
/// event sink captures the injector's per-frame decisions for attribution.
Result<std::vector<std::uint8_t>> RecordLossy4() {
  sim::Scenario scenario = sim::MakeTjScenario(2);
  COOPER_CHECK(scenario.viewpoints.size() >= 5);
  // Thinned azimuth keeps the raw ego scan and the four compressed peer
  // payloads committable (~1/3 of the stock VLP-16 rate).
  scenario.lidar.azimuth_steps = 600;

  TraceConfig config;
  config.name = "tj-lossy-4v";
  config.lidar = scenario.lidar;
  config.scan_seed = 1303;
  config.fault_seed = 977;
  config.faults.drop_prob = 0.05;
  config.faults.duplicate_prob = 0.05;
  config.faults.reorder_prob = 0.05;
  config.faults.corrupt_prob = 0.03;
  config.faults.truncate_prob = 0.02;
  config.faults.delay_prob = 0.10;

  const core::CooperConfig cfg = MakeReplayCooperConfig(config, {});
  const core::SessionConfig session_cfg = MakeReplaySessionConfig(config, {});
  core::CooperativeSession session(cfg, session_cfg);
  TraceRecorder rec(config);

  const sim::LidarSimulator lidar(scenario.lidar);
  Rng scan_rng(config.scan_seed);
  const sim::VehicleState& ego = scenario.viewpoints[0];
  const pc::PointCloud ego_cloud =
      lidar.Scan(scenario.scene, ego.ToPose(), scan_rng);
  const core::NavMetadata ego_nav = NavOf(ego, scenario.lidar.sensor_height);

  constexpr std::size_t kPeers = 4;
  std::vector<pc::PointCloud> peer_clouds;
  std::vector<core::NavMetadata> peer_navs;
  for (std::size_t i = 1; i <= kPeers; ++i) {
    peer_clouds.push_back(
        lidar.Scan(scenario.scene, scenario.viewpoints[i].ToPose(), scan_rng));
    peer_navs.push_back(
        NavOf(scenario.viewpoints[i], scenario.lidar.sensor_height));
  }

  net::Transport transport(cfg.transport);
  net::FaultInjector faults(config.faults, config.fault_seed);
  Rng channel_rng(config.fault_seed + 17);
  const double base_s = 10.0;

  faults.SetEventSink(
      [&rec](const net::FaultEvent& event) { rec.RecordFaultEvent(event); });
  transport.SetFrameTap(
      [&rec, &session, base_s](double at_ms,
                               const std::vector<std::uint8_t>& bytes) {
        const double now_s = base_s + at_ms / 1000.0;
        rec.RecordWireFrame(now_s, bytes);
        (void)session.ReceiveFrame(bytes, now_s);
      });

  const std::uint32_t scan_id = rec.AddScan(ego_cloud);

  for (int step = 0; step < 2; ++step) {
    for (std::size_t i = 0; i < kPeers; ++i) {
      const std::uint32_t sender = static_cast<std::uint32_t>(i + 2);
      const double sent_s = base_s + transport.clock_ms() / 1000.0;
      const core::ExchangePackage package = session.pipeline().MakePackage(
          sender, sent_s, core::RoiCategory::kFullFrame, peer_navs[i],
          peer_clouds[i]);
      // A delivery failure (retry budget exhausted under the fault profile)
      // is a legal recording: the tap captured whatever frames did arrive
      // and the session degrades exactly as a live receiver would.
      (void)transport.SendPackage(net::SerializePackage(package), sender,
                                  channel_rng, &faults);
    }
    const double now_s = base_s + transport.clock_ms() / 1000.0 + 0.01;
    const core::CooperOutput out =
        session.DetectCooperative(ego_cloud, ego_nav, now_s);
    rec.RecordStep(now_s, scan_id, ego_nav, out);
  }
  return rec.Finish().bytes();
}

/// T&J parking lot, ego + two cooperators exchanging at the feature level
/// (kVoxelFeatures).  Whole packages are delivered out-of-band at the
/// `ReceiveWire` boundary and recorded under the kFeaturePackage tag, so the
/// golden pins the full feature path — codec decode, ego-grid alignment,
/// pseudo-point merge — under the step digests.  Two steps refresh both
/// packages, exercising feature-level replacement and recon-cache
/// invalidation.
Result<std::vector<std::uint8_t>> RecordFeat2() {
  sim::Scenario scenario = sim::MakeTjScenario(2);
  COOPER_CHECK(scenario.viewpoints.size() >= 3);
  // Same thinned azimuth as lossy4: the raw ego scan dominates the trace
  // size; the two feature payloads are tiny by construction.
  scenario.lidar.azimuth_steps = 600;

  TraceConfig config;
  config.name = "tj-feat-2v";
  config.lidar = scenario.lidar;
  config.scan_seed = 2203;

  const core::CooperConfig cfg = MakeReplayCooperConfig(config, {});
  const core::SessionConfig session_cfg = MakeReplaySessionConfig(config, {});
  core::CooperativeSession session(cfg, session_cfg);
  TraceRecorder rec(config);

  const sim::LidarSimulator lidar(scenario.lidar);
  Rng scan_rng(config.scan_seed);
  const sim::VehicleState& ego = scenario.viewpoints[0];
  const pc::PointCloud ego_cloud =
      lidar.Scan(scenario.scene, ego.ToPose(), scan_rng);
  const core::NavMetadata ego_nav = NavOf(ego, scenario.lidar.sensor_height);

  constexpr std::size_t kPeers = 2;
  std::vector<pc::PointCloud> peer_clouds;
  std::vector<core::NavMetadata> peer_navs;
  for (std::size_t i = 1; i <= kPeers; ++i) {
    peer_clouds.push_back(
        lidar.Scan(scenario.scene, scenario.viewpoints[i].ToPose(), scan_rng));
    peer_navs.push_back(
        NavOf(scenario.viewpoints[i], scenario.lidar.sensor_height));
  }

  const std::uint32_t scan_id = rec.AddScan(ego_cloud);

  for (int step = 0; step < 2; ++step) {
    const double now_s = 10.0 + step;  // 1 Hz exchange cadence
    for (std::size_t i = 0; i < kPeers; ++i) {
      const std::uint32_t sender = static_cast<std::uint32_t>(i + 2);
      const core::ExchangePackage package =
          session.pipeline().MakeLeveledPackage(
              sender, now_s - 0.05, core::RoiCategory::kFrontSector,
              feat::ExchangeLevel::kVoxelFeatures, peer_navs[i],
              peer_clouds[i]);
      const std::vector<std::uint8_t> wire = net::SerializePackage(package);
      const double wire_s = now_s - 0.04 + 1e-4 * static_cast<double>(i);
      rec.RecordFeaturePackage(wire_s, wire);
      (void)session.ReceiveWire(wire, wire_s);
    }
    const core::CooperOutput out =
        session.DetectCooperative(ego_cloud, ego_nav, now_s);
    rec.RecordStep(now_s, scan_id, ego_nav, out);
  }
  return rec.Finish().bytes();
}

}  // namespace

const std::vector<GoldenCase>& GoldenCases() {
  static const std::vector<GoldenCase> kCases = {
      {"tj2", "golden_tj2.trace"},
      {"lossy4", "golden_lossy4.trace"},
      {"feat2", "golden_feat2.trace"},
  };
  return kCases;
}

Result<std::vector<std::uint8_t>> RecordGolden(const std::string& name) {
  if (name == "tj2") return RecordTJunction2();
  if (name == "lossy4") return RecordLossy4();
  if (name == "feat2") return RecordFeat2();
  return NotFoundError("unknown golden case '" + name +
                       "' (expected tj2, lossy4 or feat2)");
}

}  // namespace cooper::replay
