// Extension: cooperative-perception scaling with the number of cooperators.
//
// The paper fuses pairs; its vision is a CAV network.  Using the
// `CooperativeSession`, this bench adds cooperators one at a time in the
// dense parking lot and tracks detections, fused-cloud size and detection
// latency — the marginal value (and marginal cost) of each extra vehicle.
//
// It also measures the session's steady-state fusion path.  Two modes:
//   default  — timed peers × frames sweep over {1,2,4,8} cooperators and
//              {1,4} threads: cold-frame fusion cost, steady-state cost with
//              the reconstruction cache on and off, and the mean steady-state
//              detect stage for scale.  Writes a JSON baseline to
//              BENCH_session.json (override with --out=PATH); the
//              committed baseline in the repo root is produced this way.
//              The scenario has 4 cooperator viewpoints, so the 8-peer rows
//              cycle them: half of their cooperator points are exact
//              duplicates.  Finishes with the original marginal-value table
//              and google-benchmark run.
//   --smoke  — few frames, no timing thresholds; instead asserts
//              DetectCooperative output is bit-identical across
//              {cache on, cache off} x {1 thread, 4 threads}.  This is what
//              the `perf` ctest label runs, including under the sanitizer
//              presets.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/table.h"
#include "core/session.h"
#include "eval/experiment.h"
#include "eval/matching.h"
#include "obs/trace.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

using namespace cooper;

namespace {

struct Fleet {
  sim::Scenario scenario;
  std::vector<pc::PointCloud> clouds;
  std::vector<core::NavMetadata> navs;
  std::vector<geom::Box3> gt;  // receiver frame
};

// Scan-noise seed for the fleet's lidar sweeps, stamped into the JSON
// baseline so the workload is reproducible (see EXPERIMENTS.md "Seeds").
constexpr std::uint64_t kScanSeed = 909;

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
    const geom::Pose sensor0 = f.scenario.viewpoints[0].ToPose() *
                               geom::Pose(geom::Mat3::Identity(), mount);
    for (const auto& obj : f.scenario.scene.objects()) {
      if (obj.cls == sim::ObjectClass::kCar) {
        f.gt.push_back(obj.box.Transformed(sensor0.Inverse()));
      }
    }
    return f;
  }();
  return fleet;
}

int MatchedCount(const spod::SpodResult& result, const std::vector<geom::Box3>& gt) {
  std::vector<spod::Detection> confident;
  for (const auto& d : result.detections) {
    if (d.score >= eval::kScoreThreshold) confident.push_back(d);
  }
  int n = 0;
  for (const auto& m : eval::MatchDetections(confident, gt)) n += m.matched;
  return n;
}

// Session with `peers` cooperators holding fresh packages at t=10 s.  The
// scenario has 4 cooperator viewpoints; larger fleets cycle them under
// distinct sender ids, which is what the fusion path costs on anyway.
core::CooperativeSession MakeLoadedSession(std::size_t peers, int threads,
                                           bool cache) {
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
    COOPER_CHECK(session
                     .ReceivePackage(session.pipeline().MakePackage(
                                         static_cast<std::uint32_t>(k), 10.0,
                                         core::RoiCategory::kFullFrame,
                                         f.navs[view], f.clouds[view]),
                                     10.0)
                     .ok());
  }
  return session;
}

// Stage times of one receiver frame, read from its obs spans.  Fusion is
// everything DetectCooperative does *before* the shared detector pass
// (reconstruct + merge) — the part the cache and the parallel fan-out
// address.  The detect stage is reported separately.
struct FrameMs {
  double fusion = 0.0;
  double detect = 0.0;
};

FrameMs TimedFrame(core::CooperativeSession& session, double now_s) {
  const Fleet& f = MakeFleet();
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  (void)session.DetectCooperative(f.clouds[0], f.navs[0], now_s);
  return {(tracer.TotalUs("session.reconstruct") +
           tracer.TotalUs("session.merge")) / 1e3,
          tracer.TotalUs("spod.detect") / 1e3};
}

struct SweepRow {
  std::size_t peers = 0;
  int threads = 0;
  int frames = 0;
  double cold_fusion_ms = 0.0;        // first frame, cache empty
  double steady_cached_ms = 0.0;      // mean fusion over later frames
  double steady_uncached_ms = 0.0;    // same frames, cache off
  double detect_ms = 0.0;             // mean detector pass, for scale
  double speedup = 0.0;               // steady uncached / steady cached
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

SweepRow RunSweep(std::size_t peers, int threads, int frames) {
  const Fleet& f = MakeFleet();
  SweepRow row;
  row.peers = peers;
  row.threads = threads;
  row.frames = frames;

  core::CooperativeSession cached = MakeLoadedSession(peers, threads, true);
  core::CooperativeSession uncached = MakeLoadedSession(peers, threads, false);
  // Frame 0 is the cold frame: every lane reconstructs.
  row.cold_fusion_ms = TimedFrame(cached, 10.0).fusion;
  (void)uncached.DetectCooperative(f.clouds[0], f.navs[0], 10.0);
  // Steady state: the cooperators' packages are unchanged frame to frame.
  double cached_sum = 0.0;
  double uncached_sum = 0.0;
  double detect_sum = 0.0;
  for (int i = 1; i <= frames; ++i) {
    const double now_s = 10.0 + 0.05 * i;
    const FrameMs frame = TimedFrame(cached, now_s);
    cached_sum += frame.fusion;
    detect_sum += frame.detect;
    uncached_sum += TimedFrame(uncached, now_s).fusion;
  }
  row.steady_cached_ms = cached_sum / frames;
  row.steady_uncached_ms = uncached_sum / frames;
  row.detect_ms = detect_sum / frames;
  row.speedup = row.steady_cached_ms > 0.0
                    ? row.steady_uncached_ms / row.steady_cached_ms
                    : 0.0;
  row.cache_hits = cached.stats().recon_cache_hits;
  row.cache_misses = cached.stats().recon_cache_misses;
  COOPER_CHECK(uncached.stats().recon_cache_hits == 0);
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
  std::printf("  %-36s bit-identical: yes\n", what);
}

void RunSmokeChecks() {
  const Fleet& f = MakeFleet();
  auto run = [&](bool cache, int threads) {
    core::CooperativeSession session = MakeLoadedSession(4, threads, cache);
    // Two frames so the cached variants serve the compared frame from the
    // cache-hit path, not the miss path.
    (void)session.DetectCooperative(f.clouds[0], f.navs[0], 10.0);
    return session.DetectCooperative(f.clouds[0], f.navs[0], 10.05);
  };
  const core::CooperOutput baseline = run(false, 1);
  COOPER_CHECK(baseline.transmitter_points > 0);
  CheckOutputsEqual(baseline, run(false, 4), "fusion uncached 4T vs 1T");
  CheckOutputsEqual(baseline, run(true, 1), "fusion cached 1T vs uncached");
  CheckOutputsEqual(baseline, run(true, 4), "fusion cached 4T vs uncached");
}

void BM_FleetDetect(benchmark::State& state) {
  const Fleet& f = MakeFleet();
  const std::size_t cooperators = static_cast<std::size_t>(state.range(0));
  core::CooperativeSession session(eval::MakeCooperConfig(f.scenario.lidar));
  for (std::size_t k = 1; k <= cooperators; ++k) {
    (void)session.ReceivePackage(
        session.pipeline().MakePackage(static_cast<std::uint32_t>(k), 0.0,
                                       core::RoiCategory::kFullFrame,
                                       f.navs[k], f.clouds[k]),
        0.0);
  }
  for (auto _ : state) {
    auto out = session.DetectCooperative(f.clouds[0], f.navs[0], 0.0);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FleetDetect)->DenseRange(0, 4)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_session.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  std::printf("Cooper extension — multi-vehicle session fusion (%s mode)\n\n",
              smoke ? "smoke" : "timed");
  // The timed mode reads stage times from the pipeline's obs spans.
  if (!smoke) obs::SetEnabled(true);

  // Smoke is the correctness mode: bit-identity only, no timing sweep (the
  // sweep's full-resolution detect passes are far too slow under the
  // sanitizer presets that run the `perf` ctest label).
  std::vector<SweepRow> rows;
  if (smoke) {
    RunSmokeChecks();
  } else {
    // Peers x frames sweep: steady-state fusion with unchanged cooperators
    // is where the reconstruction cache pays; the uncached column is the
    // pre-cache reconstruct-every-frame behaviour on the same session.
    const int frames = 20;
    std::printf("fusion sweep: %d steady frames per config\n", frames);
    for (int threads : {1, 4}) {
      for (std::size_t peers : {1u, 2u, 4u, 8u}) {
        const SweepRow row = RunSweep(peers, threads, frames);
        std::printf("  peers %zu  threads %d  cold %7.2f ms  steady cached "
                    "%6.3f ms  uncached %7.2f ms  (%.0fx, %zu hits)\n",
                    row.peers, row.threads, row.cold_fusion_ms,
                    row.steady_cached_ms, row.steady_uncached_ms, row.speedup,
                    row.cache_hits);
        rows.push_back(row);
      }
    }
  }

  std::FILE* jf = std::fopen(out_path.c_str(), "w");
  COOPER_CHECK(jf != nullptr);
  // Stamp the workload provenance: scenario, lidar geometry and every seed
  // feeding the deterministic scans.
  const Fleet& fleet = MakeFleet();
  std::fprintf(jf, "{\n  \"mode\": \"%s\",\n", smoke ? "smoke" : "timed");
  std::fprintf(jf,
               "  \"cpu\": {\"features\": \"%s\", \"detected_tier\": \"%s\", "
               "\"active_tier\": \"%s\"},\n",
               common::simd::CpuFeatureString().c_str(),
               common::simd::TierName(common::simd::DetectedTier()),
               common::simd::TierName(common::simd::ActiveTier()));
  std::fprintf(jf,
               "  \"note\": \"%zu cooperator viewpoints; rows with more peers "
               "cycle them under distinct sender ids, so the 8-peer rows fuse "
               "every cooperator point twice (half are exact duplicates)\",\n",
               fleet.clouds.size() - 1);
  std::fprintf(jf,
               "  \"seeds\": {\"scan\": %llu, \"scenario\": %llu},\n",
               static_cast<unsigned long long>(kScanSeed),
               static_cast<unsigned long long>(fleet.scenario.seed));
  std::fprintf(jf,
               "  \"config\": {\"scenario\": \"%s\", \"lidar_beams\": %d, "
               "\"azimuth_steps\": %d, \"sweep_threads\": [1, 4], "
               "\"sweep_peers\": [1, 2, 4, 8]},\n",
               fleet.scenario.name.c_str(), fleet.scenario.lidar.beams,
               fleet.scenario.lidar.azimuth_steps);
  std::fprintf(jf, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        jf,
        "    {\"peers\": %zu, \"threads\": %d, \"frames\": %d, "
        "\"cold_fusion_ms\": %.3f, \"steady_cached_fusion_ms\": %.3f, "
        "\"steady_uncached_fusion_ms\": %.3f, \"speedup\": %.2f, "
        "\"detect_ms\": %.3f, \"cache_hits\": %zu, \"cache_misses\": %zu}%s\n",
        r.peers, r.threads, r.frames, r.cold_fusion_ms, r.steady_cached_ms,
        r.steady_uncached_ms, r.speedup, r.detect_ms, r.cache_hits,
        r.cache_misses, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(jf, "  ]\n}\n");
  std::fclose(jf);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (smoke) {
    std::printf("smoke checks passed: fusion bit-identical across cache and "
                "thread settings\n");
    return 0;
  }

  const Fleet& f = MakeFleet();
  std::printf("\ndetection vs number of cooperators (tj-scenario-2, %zu "
              "ground-truth cars)\n\n",
              f.gt.size());
  Table table({"cooperators", "fused points", "cars detected", "latency (ms)",
               "exchange volume (Mbit)"});
  core::CooperativeSession session(eval::MakeCooperConfig(f.scenario.lidar));
  double volume_mbit = 0.0;
  for (std::size_t k = 0; k < f.clouds.size(); ++k) {
    if (k > 0) {
      const auto package = session.pipeline().MakePackage(
          static_cast<std::uint32_t>(k), 0.0, core::RoiCategory::kFullFrame,
          f.navs[k], f.clouds[k]);
      volume_mbit += package.PayloadMbit();
      COOPER_CHECK(session.ReceivePackage(package, 0.0).ok());
    }
    obs::Tracer::Global().Clear();
    const auto out = session.DetectCooperative(f.clouds[0], f.navs[0], 0.0);
    table.AddRow({std::to_string(k), std::to_string(out.fused_cloud.size()),
                  std::to_string(MatchedCount(out.fused, f.gt)),
                  FormatFixed(obs::Tracer::Global().TotalUs("spod.detect") /
                                  1e3, 1),
                  FormatFixed(volume_mbit, 2)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("detections rise with each viewpoint but saturate once the lot "
              "is covered, while cost keeps growing — supporting a selective "
              "cooperator policy rather than fuse-everything.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
