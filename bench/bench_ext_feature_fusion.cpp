// Extension: the feature-level exchange rung (feat/) against the paper's
// raw- and ROI-cloud rungs.
//
// Sweeps exchange level x cooperator count in the dense parking lot: payload
// bytes on the air, DSRC airtime, fused-cloud growth, detections and fusion
// cost per frame.  The headline claim pinned by the committed baseline
// (BENCH_feat.json): the quantized VFE feature payload is >= 5x smaller than
// the ROI-cloud codec payload of the same scan.  A planner sweep then shows
// the bandwidth ladder in action — as the channel rate drops, PlanExchange
// walks cooperators raw -> ROI -> features.
//
// Two modes:
//   default  — full sweep, writes the JSON baseline (override --out=PATH);
//              the committed baseline in the repo root is produced this way.
//   --smoke  — asserts the >= 5x payload ratio and that kVoxelFeatures
//              fusion is bit-identical across {cache on/off} x {1,4}
//              threads.  This is what the `perf` ctest label runs, including
//              under the sanitizer presets.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/simd.h"
#include "core/demand.h"
#include "core/session.h"
#include "eval/experiment.h"
#include "feat/planner.h"
#include "net/serialize.h"
#include "obs/trace.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

using namespace cooper;

namespace {

struct Fleet {
  sim::Scenario scenario;
  std::vector<pc::PointCloud> clouds;
  std::vector<core::NavMetadata> navs;
};

// Scan-noise seed, stamped into the JSON baseline so the workload is
// reproducible (see EXPERIMENTS.md "Seeds").
constexpr std::uint64_t kScanSeed = 1109;

constexpr feat::ExchangeLevel kLevels[] = {feat::ExchangeLevel::kRawCloud,
                                           feat::ExchangeLevel::kRoiCloud,
                                           feat::ExchangeLevel::kVoxelFeatures};

const Fleet& MakeFleet() {
  static const Fleet fleet = [] {
    Fleet f;
    f.scenario = sim::MakeTjScenario(2);
    const sim::LidarSimulator lidar(f.scenario.lidar);
    Rng rng(kScanSeed);
    const geom::Vec3 mount{0, 0, f.scenario.lidar.sensor_height};
    for (const auto& vp : f.scenario.viewpoints) {
      f.clouds.push_back(lidar.Scan(f.scenario.scene, vp.ToPose(), rng));
      f.navs.push_back(core::NavMetadata{vp.position, vp.attitude, mount});
    }
    return f;
  }();
  return fleet;
}

// Session with `peers` cooperators all exchanging at `level`, delivered
// through the real wire (serialize + ReceiveWire) so the level byte and the
// payload decode path are both costed.
core::CooperativeSession MakeLoadedSession(feat::ExchangeLevel level,
                                           std::size_t peers, int threads,
                                           bool cache,
                                           std::size_t* payload_bytes) {
  const Fleet& f = MakeFleet();
  core::CooperConfig cfg = eval::MakeCooperConfig(f.scenario.lidar);
  cfg.num_threads = threads;
  core::SessionConfig sc;
  sc.cache_reconstructions = cache;
  sc.max_cooperators = peers;
  core::CooperativeSession session(cfg, sc);
  const std::size_t n_views = f.clouds.size() - 1;
  for (std::size_t k = 1; k <= peers; ++k) {
    const std::size_t view = 1 + (k - 1) % n_views;
    const core::ExchangePackage package = session.pipeline().MakeLeveledPackage(
        static_cast<std::uint32_t>(k), 10.0, core::RoiCategory::kFrontSector,
        level, f.navs[view], f.clouds[view]);
    if (payload_bytes != nullptr) *payload_bytes += package.payload.size();
    COOPER_CHECK(
        session.ReceiveWire(net::SerializePackage(package), 10.0).ok());
  }
  return session;
}

struct SweepRow {
  feat::ExchangeLevel level = feat::ExchangeLevel::kRoiCloud;
  std::size_t peers = 0;
  std::size_t payload_bytes = 0;  // summed codec payloads on the air
  double airtime_ms = 0.0;        // per-message DSRC airtime, summed
  std::size_t fused_points = 0;
  std::size_t detections = 0;
  double fusion_ms = 0.0;  // steady-state reconstruct+merge
  double detect_ms = 0.0;  // shared detector pass, for scale
};

SweepRow RunSweep(feat::ExchangeLevel level, std::size_t peers) {
  const Fleet& f = MakeFleet();
  SweepRow row;
  row.level = level;
  row.peers = peers;
  core::CooperativeSession session =
      MakeLoadedSession(level, peers, /*threads=*/4, /*cache=*/true,
                        &row.payload_bytes);
  const net::DsrcConfig channel;  // stock 802.11p service channel
  const std::size_t per_peer = peers > 0 ? row.payload_bytes / peers : 0;
  row.airtime_ms = static_cast<double>(peers) * feat::AirtimeMs(channel, per_peer);
  (void)session.DetectCooperative(f.clouds[0], f.navs[0], 10.0);
  // The steady frame's stage times, read from its obs spans.
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  const core::CooperOutput out =
      session.DetectCooperative(f.clouds[0], f.navs[0], 10.05);
  row.fused_points = out.fused_cloud.size();
  row.detections = out.fused.detections.size();
  row.fusion_ms = (tracer.TotalUs("session.reconstruct") +
                   tracer.TotalUs("session.merge")) / 1e3;
  row.detect_ms = tracer.TotalUs("spod.detect") / 1e3;
  return row;
}

// Payload bytes of one cooperator's scan at each level, for the planner
// sweep and the headline ratio.
core::ExchangePackage LeveledPackage(feat::ExchangeLevel level,
                                     std::size_t view) {
  const Fleet& f = MakeFleet();
  const core::CooperPipeline pipeline(eval::MakeCooperConfig(f.scenario.lidar));
  return pipeline.MakeLeveledPackage(static_cast<std::uint32_t>(view), 10.0,
                                     core::RoiCategory::kFrontSector, level,
                                     f.navs[view], f.clouds[view]);
}

struct PlannerRow {
  double rate_mbps = 0.0;
  std::vector<feat::ExchangeLevel> chosen;  // ascending sender id
  double airtime_ms = 0.0;
  double budget_ms = 0.0;
  std::size_t degrade_steps = 0;
  bool over_budget = false;
};

PlannerRow RunPlanner(double rate_mbps,
                      const std::vector<feat::CooperatorDemand>& demands) {
  feat::PlannerConfig cfg;
  cfg.channel.data_rate_mbps = rate_mbps;
  const feat::ExchangePlan plan = feat::PlanExchange(cfg, demands);
  PlannerRow row;
  row.rate_mbps = rate_mbps;
  for (const feat::PlanEntry& e : plan.entries) row.chosen.push_back(e.level);
  row.airtime_ms = plan.airtime_ms;
  row.budget_ms = plan.budget_ms;
  row.degrade_steps = plan.degrade_steps;
  row.over_budget = plan.over_budget;
  return row;
}

// --- Bit-identity checks (the --smoke contract) ---

void CheckOutputsEqual(const core::CooperOutput& a, const core::CooperOutput& b,
                       const char* what) {
  COOPER_CHECK(a.transmitter_points == b.transmitter_points);
  COOPER_CHECK(a.fused_cloud.size() == b.fused_cloud.size());
  for (std::size_t i = 0; i < a.fused_cloud.size(); ++i) {
    const pc::Point& p = a.fused_cloud[i];
    const pc::Point& q = b.fused_cloud[i];
    COOPER_CHECK(p.position.x == q.position.x);
    COOPER_CHECK(p.position.y == q.position.y);
    COOPER_CHECK(p.position.z == q.position.z);
    COOPER_CHECK(p.reflectance == q.reflectance);
  }
  COOPER_CHECK(a.fused.detections.size() == b.fused.detections.size());
  for (std::size_t i = 0; i < a.fused.detections.size(); ++i) {
    const spod::Detection& d = a.fused.detections[i];
    const spod::Detection& e = b.fused.detections[i];
    COOPER_CHECK(d.box.center.x == e.box.center.x);
    COOPER_CHECK(d.box.center.y == e.box.center.y);
    COOPER_CHECK(d.box.center.z == e.box.center.z);
    COOPER_CHECK(d.box.yaw == e.box.yaw);
    COOPER_CHECK(d.score == e.score);
    COOPER_CHECK(d.num_points == e.num_points);
  }
  std::printf("  %-40s bit-identical: yes\n", what);
}

double PayloadRatioRoiOverFeat() {
  const std::size_t roi =
      LeveledPackage(feat::ExchangeLevel::kRoiCloud, 1).payload.size();
  const std::size_t feature =
      LeveledPackage(feat::ExchangeLevel::kVoxelFeatures, 1).payload.size();
  COOPER_CHECK(feature > 0);
  return static_cast<double>(roi) / static_cast<double>(feature);
}

void RunSmokeChecks() {
  const Fleet& f = MakeFleet();
  const double ratio = PayloadRatioRoiOverFeat();
  std::printf("  ROI payload / feature payload = %.1fx (need >= 5x)\n", ratio);
  COOPER_CHECK(ratio >= 5.0);
  auto run = [&](bool cache, int threads) {
    core::CooperativeSession session = MakeLoadedSession(
        feat::ExchangeLevel::kVoxelFeatures, 2, threads, cache, nullptr);
    (void)session.DetectCooperative(f.clouds[0], f.navs[0], 10.0);
    return session.DetectCooperative(f.clouds[0], f.navs[0], 10.05);
  };
  const core::CooperOutput baseline = run(false, 1);
  COOPER_CHECK(baseline.transmitter_points > 0);
  // Pseudo-points grow the fused cloud relative to the ego-only pipeline
  // (which densifies, so compare against a zero-peer run, not the raw scan).
  core::CooperativeSession solo = MakeLoadedSession(
      feat::ExchangeLevel::kVoxelFeatures, 0, 1, false, nullptr);
  const core::CooperOutput ego_only =
      solo.DetectCooperative(f.clouds[0], f.navs[0], 10.0);
  COOPER_CHECK(baseline.fused_cloud.size() ==
               ego_only.fused_cloud.size() + baseline.transmitter_points);
  CheckOutputsEqual(baseline, run(false, 4), "feat fusion uncached 4T vs 1T");
  CheckOutputsEqual(baseline, run(true, 1), "feat fusion cached 1T vs uncached");
  CheckOutputsEqual(baseline, run(true, 4), "feat fusion cached 4T vs uncached");
}

void BM_FeatureDetect(benchmark::State& state) {
  const Fleet& f = MakeFleet();
  const auto level = kLevels[static_cast<std::size_t>(state.range(0))];
  core::CooperativeSession session =
      MakeLoadedSession(level, 2, /*threads=*/4, /*cache=*/true, nullptr);
  for (auto _ : state) {
    auto out = session.DetectCooperative(f.clouds[0], f.navs[0], 10.0);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FeatureDetect)->DenseRange(0, 2)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_feat.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  std::printf("Cooper extension — feature-level exchange (%s mode)\n\n",
              smoke ? "smoke" : "timed");
  // The timed mode reads stage times from the pipeline's obs spans.
  if (!smoke) obs::SetEnabled(true);

  std::vector<SweepRow> rows;
  std::vector<PlannerRow> planner_rows;
  double ratio = 0.0;
  if (smoke) {
    RunSmokeChecks();
  } else {
    ratio = PayloadRatioRoiOverFeat();
    std::printf("payload ratio (ROI cloud / voxel features): %.1fx\n\n", ratio);
    COOPER_CHECK(ratio >= 5.0);
    for (const feat::ExchangeLevel level : kLevels) {
      for (const std::size_t peers : {1u, 2u, 4u}) {
        const SweepRow row = RunSweep(level, peers);
        std::printf("  %-14s peers %zu  payload %8zu B  airtime %7.2f ms  "
                    "fused %7zu pts  det %2zu  fusion %6.2f ms\n",
                    feat::ExchangeLevelName(row.level), row.peers,
                    row.payload_bytes, row.airtime_ms, row.fused_points,
                    row.detections, row.fusion_ms);
        rows.push_back(row);
      }
    }
    // Planner sweep: three cooperators with mixed demand, channel rate
    // falling from the DSRC nominal to a congested floor.
    std::vector<feat::CooperatorDemand> demands;
    for (std::uint32_t k = 1; k <= 3; ++k) {
      const std::size_t view = k;
      demands.push_back(core::MakeCooperatorDemand(
          k,
          k == 1 ? core::RoiCategory::kFullFrame
                 : core::RoiCategory::kFrontSector,
          LeveledPackage(feat::ExchangeLevel::kRawCloud, view).payload.size(),
          LeveledPackage(feat::ExchangeLevel::kRoiCloud, view).payload.size(),
          LeveledPackage(feat::ExchangeLevel::kVoxelFeatures, view)
              .payload.size()));
    }
    std::printf("\nplanner sweep (3 cooperators, demand full/sector/sector)\n");
    for (const double rate : {27.0, 6.0, 2.0, 0.5}) {
      const PlannerRow row = RunPlanner(rate, demands);
      std::printf("  %5.1f Mbps -> [%s %s %s]  airtime %7.2f / budget %.0f ms"
                  "  (%zu degrades%s)\n",
                  row.rate_mbps, feat::ExchangeLevelName(row.chosen[0]),
                  feat::ExchangeLevelName(row.chosen[1]),
                  feat::ExchangeLevelName(row.chosen[2]), row.airtime_ms,
                  row.budget_ms, row.degrade_steps,
                  row.over_budget ? ", over budget" : "");
      planner_rows.push_back(row);
    }
  }

  std::FILE* jf = std::fopen(out_path.c_str(), "w");
  COOPER_CHECK(jf != nullptr);
  const Fleet& fleet = MakeFleet();
  std::fprintf(jf, "{\n  \"mode\": \"%s\",\n", smoke ? "smoke" : "timed");
  std::fprintf(jf,
               "  \"cpu\": {\"features\": \"%s\", \"detected_tier\": \"%s\", "
               "\"active_tier\": \"%s\"},\n",
               common::simd::CpuFeatureString().c_str(),
               common::simd::TierName(common::simd::DetectedTier()),
               common::simd::TierName(common::simd::ActiveTier()));
  std::fprintf(jf, "  \"seeds\": {\"scan\": %llu, \"scenario\": %llu},\n",
               static_cast<unsigned long long>(kScanSeed),
               static_cast<unsigned long long>(fleet.scenario.seed));
  std::fprintf(jf,
               "  \"config\": {\"scenario\": \"%s\", \"lidar_beams\": %d, "
               "\"azimuth_steps\": %d, \"sweep_peers\": [1, 2, 4], "
               "\"levels\": [\"raw cloud\", \"ROI cloud\", \"voxel "
               "features\"]},\n",
               fleet.scenario.name.c_str(), fleet.scenario.lidar.beams,
               fleet.scenario.lidar.azimuth_steps);
  std::fprintf(jf, "  \"payload_ratio_roi_over_feat\": %.2f,\n", ratio);
  std::fprintf(jf, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        jf,
        "    {\"level\": \"%s\", \"peers\": %zu, \"payload_bytes\": %zu, "
        "\"airtime_ms\": %.3f, \"fused_points\": %zu, \"detections\": %zu, "
        "\"fusion_ms\": %.3f, \"detect_ms\": %.3f}%s\n",
        feat::ExchangeLevelName(r.level), r.peers, r.payload_bytes,
        r.airtime_ms, r.fused_points, r.detections, r.fusion_ms, r.detect_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(jf, "  ],\n  \"planner\": [\n");
  for (std::size_t i = 0; i < planner_rows.size(); ++i) {
    const PlannerRow& r = planner_rows[i];
    std::fprintf(jf,
                 "    {\"rate_mbps\": %.2f, \"levels\": [\"%s\", \"%s\", "
                 "\"%s\"], \"airtime_ms\": %.3f, \"budget_ms\": %.3f, "
                 "\"degrade_steps\": %zu, \"over_budget\": %s}%s\n",
                 r.rate_mbps, feat::ExchangeLevelName(r.chosen[0]),
                 feat::ExchangeLevelName(r.chosen[1]),
                 feat::ExchangeLevelName(r.chosen[2]), r.airtime_ms,
                 r.budget_ms, r.degrade_steps,
                 r.over_budget ? "true" : "false",
                 i + 1 < planner_rows.size() ? "," : "");
  }
  std::fprintf(jf, "  ]\n}\n");
  std::fclose(jf);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (smoke) {
    std::printf("smoke checks passed: >=5x payload reduction, feature fusion "
                "bit-identical across cache and thread settings\n");
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
