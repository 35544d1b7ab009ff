// Fig. 9 reproduction: time needed to detect objects on single-shot vs
// cooperative sensing data, for the KITTI-style (64-beam) and T&J-style
// (16-beam) sensors.
//
// Paper observation: fusing roughly doubles the input points but adds only a
// small constant to detection time (~5 ms on the authors' GPU).  This
// detector has no learned dense head: every stage (preprocess, cluster,
// proposals) scales with points, so the overhead here is the cost of the
// extra points.  Absolute numbers are CPU milliseconds; the claim under test
// is the *relative* overhead of Cooper vs single shot.
//
// The report also breaks each stage down at 1 thread and at hardware
// concurrency, read from the detector's obs spans, and checks the threading
// contract: detections are bit-identical at any thread count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/table.h"
#include "common/thread_pool.h"
#include "eval/experiment.h"
#include "obs/trace.h"
#include "obs_flags.h"

using namespace cooper;

namespace {

struct PreparedCase {
  core::CooperConfig config;
  pc::PointCloud single_cloud;
  pc::PointCloud fused_cloud;
  core::NavMetadata nav_a;
  core::ExchangePackage package;
};

PreparedCase Prepare(const sim::Scenario& sc) {
  PreparedCase p;
  p.config = eval::MakeCooperConfig(sc.lidar);
  const core::CooperPipeline pipeline(p.config);

  Rng rng(sc.seed);
  const sim::LidarSimulator lidar(sc.lidar);
  const auto& va = sc.viewpoints[sc.cases[0].a];
  const auto& vb = sc.viewpoints[sc.cases[0].b];
  // The paper evaluates the 120-degree front-view area of each scan.
  const double half_fov = geom::DegToRad(60.0);
  p.single_cloud =
      lidar.Scan(sc.scene, va.ToPose(), rng).FilterAzimuthSector(0.0, half_fov);
  const pc::PointCloud cloud_b =
      lidar.Scan(sc.scene, vb.ToPose(), rng).FilterAzimuthSector(0.0, half_fov);

  const geom::Vec3 mount{0.0, 0.0, sc.lidar.sensor_height};
  p.nav_a = core::NavMetadata{va.position, va.attitude, mount};
  const core::NavMetadata nav_b{vb.position, vb.attitude, mount};
  p.package = pipeline.MakePackage(1, 0.0, core::RoiCategory::kFullFrame,
                                   nav_b, cloud_b);
  auto coop = pipeline.DetectCooperative(p.single_cloud, p.nav_a, p.package);
  COOPER_CHECK(coop.ok());
  p.fused_cloud = std::move(coop).value().fused_cloud;
  return p;
}

const PreparedCase& KittiCase() {
  static const PreparedCase p = Prepare(sim::MakeKittiTJunction());
  return p;
}
const PreparedCase& TjCase() {
  static const PreparedCase p = Prepare(sim::MakeTjScenario(1));
  return p;
}

spod::SpodDetector MakeDetector(const PreparedCase& p, int threads) {
  spod::SpodConfig cfg = p.config.detector;
  cfg.num_threads = threads;
  return spod::SpodDetector(cfg, p.config.sensor);
}

void RunDetect(benchmark::State& state, const PreparedCase& p, bool fused,
               int threads) {
  const spod::SpodDetector detector = MakeDetector(p, threads);
  const pc::PointCloud& cloud = fused ? p.fused_cloud : p.single_cloud;
  for (auto _ : state) {
    auto result =
        fused ? detector.DetectPreprocessed(cloud) : detector.Detect(cloud);
    benchmark::DoNotOptimize(result);
  }
  state.counters["points"] = static_cast<double>(cloud.size());
  state.counters["threads"] = static_cast<double>(common::ResolveThreads(threads));
}

void BM_Detect_Kitti_SingleShot(benchmark::State& state) {
  RunDetect(state, KittiCase(), false, 1);
}
void BM_Detect_Kitti_Cooper(benchmark::State& state) {
  RunDetect(state, KittiCase(), true, 1);
}
void BM_Detect_TJ_SingleShot(benchmark::State& state) {
  RunDetect(state, TjCase(), false, 1);
}
void BM_Detect_TJ_Cooper(benchmark::State& state) {
  RunDetect(state, TjCase(), true, 1);
}
// Same detections, hardware-concurrency ThreadPool (num_threads <= 0).
void BM_Detect_Kitti_SingleShot_MT(benchmark::State& state) {
  RunDetect(state, KittiCase(), false, 0);
}
void BM_Detect_Kitti_Cooper_MT(benchmark::State& state) {
  RunDetect(state, KittiCase(), true, 0);
}
void BM_Detect_TJ_SingleShot_MT(benchmark::State& state) {
  RunDetect(state, TjCase(), false, 0);
}
void BM_Detect_TJ_Cooper_MT(benchmark::State& state) {
  RunDetect(state, TjCase(), true, 0);
}

BENCHMARK(BM_Detect_Kitti_SingleShot)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_Detect_Kitti_Cooper)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_Detect_TJ_SingleShot)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_Detect_TJ_Cooper)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_Detect_Kitti_SingleShot_MT)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_Detect_Kitti_Cooper_MT)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_Detect_TJ_SingleShot_MT)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_Detect_TJ_Cooper_MT)->Unit(benchmark::kMillisecond)->MinTime(2.0);

// The detector's stage spans, in pipeline order; `spod.detect` is the total.
constexpr const char* kStages[] = {"spod.densify", "spod.preprocess",
                                   "spod.cluster", "spod.proposals",
                                   "spod.detect"};
constexpr std::size_t kNumStages = std::size(kStages);
using StageMs = std::array<double, kNumStages>;

// Best-of-k stage times (by total), to keep the breakdown table stable.
StageMs BestStages(const spod::SpodDetector& detector,
                   const pc::PointCloud& cloud, bool fused) {
  obs::Tracer& tracer = obs::Tracer::Global();
  StageMs best{};
  for (int rep = 0; rep < 3; ++rep) {
    tracer.Clear();
    (void)(fused ? detector.DetectPreprocessed(cloud) : detector.Detect(cloud));
    StageMs ms{};
    for (std::size_t i = 0; i < kNumStages; ++i) {
      ms[i] = tracer.TotalUs(kStages[i]) / 1e3;
    }
    if (rep == 0 || ms.back() < best.back()) best = ms;
  }
  return best;
}

// "cooper.reconstruct 1.2ms | ..." over the spans since the last Clear().
std::string SpanSummary() {
  std::string out;
  for (const char* name :
       {"cooper.reconstruct", "cooper.icp", "cooper.merge", "spod.detect"}) {
    if (!out.empty()) out += " | ";
    out += std::string(name) + " " +
           FormatFixed(obs::Tracer::Global().TotalUs(name) / 1e3, 1) + "ms";
  }
  return out;
}

bool SameDetections(const std::vector<spod::Detection>& a,
                    const std::vector<spod::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].box.center.x != b[i].box.center.x ||
        a[i].box.center.y != b[i].box.center.y ||
        a[i].box.yaw != b[i].box.yaw || a[i].score != b[i].score ||
        a[i].num_points != b[i].num_points) {
      return false;
    }
  }
  return true;
}

void ReportCase(const char* name, const PreparedCase& p, int hw) {
  const spod::SpodDetector serial = MakeDetector(p, 1);
  const spod::SpodDetector parallel = MakeDetector(p, hw);

  const StageMs s1 = BestStages(serial, p.single_cloud, false);
  const StageMs sN = BestStages(parallel, p.single_cloud, false);
  const StageMs c1 = BestStages(serial, p.fused_cloud, true);
  const StageMs cN = BestStages(parallel, p.fused_cloud, true);

  std::printf("\n%s: single %zu pts, Cooper %zu pts — per-stage ms at 1 and "
              "%d threads\n",
              name, p.single_cloud.size(), p.fused_cloud.size(), hw);
  Table table({"stage", "single 1T", "single " + std::to_string(hw) + "T",
                       "cooper 1T", "cooper " + std::to_string(hw) + "T"});
  for (std::size_t i = 0; i < kNumStages; ++i) {
    table.AddRow({kStages[i], FormatFixed(s1[i], 2), FormatFixed(sN[i], 2),
                  FormatFixed(c1[i], 2), FormatFixed(cN[i], 2)});
  }
  std::printf("%s", table.ToString().c_str());
  // The Cooper side densifies each source before the merge, outside this
  // call, so the overhead compares detect without `spod.densify` (row 0).
  const auto undensified = [](const StageMs& ms) { return ms.back() - ms[0]; };
  std::printf("Fig. 9 claim: Cooper overhead %.1f ms at 1T, %.1f ms at %dT "
              "(without densify)\n",
              undensified(c1) - undensified(s1),
              undensified(cN) - undensified(sN), hw);

  // End-to-end DetectCooperative (reconstruct + ICP + merge + detect) wall
  // clock at 1 vs hw threads, plus the thread-count invariance check the
  // threading contract promises (DESIGN.md "Threading model").
  core::CooperConfig cfg1 = p.config;
  cfg1.num_threads = 1;
  core::CooperConfig cfgN = p.config;
  cfgN.num_threads = hw;
  const core::CooperPipeline pipe1(cfg1);
  const core::CooperPipeline pipeN(cfgN);
  auto time_coop = [&](const core::CooperPipeline& pipe,
                       core::CooperOutput* out, std::string* stages) {
    double best_us = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      obs::Tracer::Global().Clear();
      const auto t0 = std::chrono::steady_clock::now();
      auto result = pipe.DetectCooperative(p.single_cloud, p.nav_a, p.package);
      const auto t1 = std::chrono::steady_clock::now();
      COOPER_CHECK(result.ok());
      const double us =
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      if (rep == 0 || us < best_us) {
        best_us = us;
        *out = std::move(result).value();
        *stages = SpanSummary();
      }
    }
    return best_us;
  };
  core::CooperOutput coop1, coopN;
  std::string stages1, stagesN;
  const double us1 = time_coop(pipe1, &coop1, &stages1);
  const double usN = time_coop(pipeN, &coopN, &stagesN);
  std::printf("DetectCooperative end-to-end: %.1f ms at 1T -> %.1f ms at %dT "
              "(%.2fx)\n",
              us1 / 1e3, usN / 1e3, hw, us1 / usN);
  std::printf("  1T stages: %s\n", stages1.c_str());
  std::printf("  %dT stages: %s\n", hw, stagesN.c_str());
  std::printf("  detections identical across thread counts: %s\n",
              SameDetections(coop1.fused.detections, coopN.fused.detections)
                  ? "yes"
                  : "NO — THREADING CONTRACT VIOLATED");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Cooper reproduction — Fig. 9: detection time, single shot vs "
              "Cooper (CPU; paper used a GTX 1080 Ti)\n\n");
  const auto obs_flags = benchutil::ParseObsFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // The exports cover the benchmark iterations; the report below clears the
  // trace between calls to read each call's stage spans.
  benchutil::ExportObs(obs_flags);
  obs::SetEnabled(true);

  // Hardware concurrency, floored at 2 so the 1-vs-N comparison and the
  // invariance check stay meaningful on single-core hosts.
  const int hw = std::max(2, common::ResolveThreads(0));
  ReportCase("KITTI", KittiCase(), hw);
  ReportCase("T&J", TjCase(), hw);
  return 0;
}
