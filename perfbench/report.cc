#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/simd.h"
#include "eval/experiment.h"
#include "eval/matching.h"
#include "sim/lidar.h"

namespace perfbench {

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int MaxThreads() { return std::min(4, Nproc()); }

void Tracer::Record(const char* name, Clock::time_point t0,
                    Clock::time_point t1) {
  if (!enabled_) return;
  per_sample_[name][sample_] += MsBetween(t0, t1);
}

void Tracer::Value(const char* name, double v) {
  if (!enabled_) return;
  per_sample_[name][sample_] += v;
}

double Tracer::MedianPerSample(const std::string& name) const {
  const auto it = per_sample_.find(name);
  if (it == per_sample_.end()) return 0.0;
  std::vector<double> values;
  values.reserve(it->second.size());
  for (const auto& [sample, v] : it->second) values.push_back(v);
  return Median(std::move(values));
}

const std::vector<std::uint64_t>* FindReference(const std::string& path,
                                                const std::string& workload,
                                                std::uint64_t seed) {
  // Table format, one row per line: `<workload> <seed> <hex digest>...`;
  // `#` starts a comment line.
  static std::map<std::pair<std::string, std::uint64_t>,
                  std::vector<std::uint64_t>>
      table;
  static bool loaded = false;
  if (!loaded) {
    loaded = true;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream row(line);
      std::string name;
      std::uint64_t row_seed = 0;
      if (!(row >> name >> row_seed)) continue;
      std::vector<std::uint64_t> digests;
      std::string hex;
      while (row >> hex) digests.push_back(std::stoull(hex, nullptr, 16));
      table[{name, row_seed}] = std::move(digests);
    }
  }
  const auto it = table.find({workload, seed});
  return it == table.end() ? nullptr : &it->second;
}

namespace {

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ull + a * 0xbf58476d1ce4e5b9ull +
                    b * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 29;
  return h;
}

cooper::geom::Pose SensorPose(const cooper::sim::Scenario& scenario,
                              std::size_t view) {
  return scenario.viewpoints[view].ToPose() *
         cooper::geom::Pose(cooper::geom::Mat3::Identity(),
                            {0.0, 0.0, scenario.lidar.sensor_height});
}

}  // namespace

std::vector<cooper::pc::PointCloud> ScanPool(
    const cooper::sim::Scenario& scenario, std::size_t view, int pool,
    std::uint64_t seed) {
  cooper::sim::LidarConfig lidar_cfg = scenario.lidar;
  lidar_cfg.num_threads = MaxThreads();  // generator; scans are thread-invariant
  const cooper::sim::LidarSimulator lidar(lidar_cfg);
  std::vector<cooper::pc::PointCloud> scans;
  for (int j = 0; j < pool; ++j) {
    cooper::Rng rng(MixSeed(seed, view, static_cast<std::uint64_t>(j)));
    scans.push_back(
        lidar.Scan(scenario.scene, scenario.viewpoints[view].ToPose(), rng));
  }
  return scans;
}

cooper::core::NavMetadata NavOf(const cooper::sim::Scenario& scenario,
                                std::size_t view) {
  const cooper::sim::VehicleState& vp = scenario.viewpoints[view];
  return {vp.position, vp.attitude, {0.0, 0.0, scenario.lidar.sensor_height}};
}

std::vector<cooper::geom::Box3> CarsNear(const cooper::sim::Scenario& scenario,
                                         std::size_t view) {
  const cooper::geom::Pose world_to_sensor =
      SensorPose(scenario, view).Inverse();
  std::vector<cooper::geom::Box3> cars;
  for (const auto& obj : scenario.scene.objects()) {
    if (obj.cls != cooper::sim::ObjectClass::kCar) continue;
    const cooper::geom::Box3 box = obj.box.Transformed(world_to_sensor);
    if (std::hypot(box.center.x, box.center.y) <= 55.0) cars.push_back(box);
  }
  return cars;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void StampHost(RunResult* result, const Options& options, int threads) {
  namespace simd = cooper::common::simd;
  result->Stamp("workload", JsonString(options.workload));
  result->Stamp("seed", std::to_string(options.seed));
  result->Stamp("cpu_features", JsonString(simd::CpuFeatureString()));
  result->Stamp("simd_tier", JsonString(simd::TierName(simd::ActiveTier())));
  result->Stamp("nproc", std::to_string(Nproc()));
  result->Stamp("threads", std::to_string(threads));
  result->Stamp("traced", options.trace ? "true" : "false");
}

int MatchedCars(const std::vector<cooper::spod::Detection>& detections,
                const std::vector<cooper::geom::Box3>& cars) {
  std::vector<cooper::spod::Detection> confident;
  for (const auto& d : detections) {
    if (d.score >= cooper::eval::kScoreThreshold) confident.push_back(d);
  }
  int matched = 0;
  for (const auto& m : cooper::eval::MatchDetections(confident, cars)) {
    matched += m.matched ? 1 : 0;
  }
  return matched;
}

void AddLayerMetrics(const Tracer& tracer,
                     const std::map<std::string, double>& run_level,
                     RunResult* result) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      // Sender side and wire size.
      {"core.build_package_ms", "ms"},
      {"net.serialize_ms", "ms"},
      {"net.fragment_ms", "ms"},
      {"core.payload_bytes", "B"},
      {"net.frames_per_package", "count"},
      // Receive path.
      {"core.receive_frame_ms", "ms"},
      {"net.reassemble_ms", "ms"},
      {"net.deserialize_ms", "ms"},
      {"core.decode_ms", "ms"},
      {"net.frames_retransmitted", "count"},
      {"net.packages_failed", "count"},
      {"core.packages_corrupt", "count"},
      {"core.packages_incomplete", "count"},
      // Fusion.
      {"core.reconstruct_ms", "ms"},
      {"spod.densify_ms", "ms"},
      {"feat.align_ms", "ms"},
      {"pointcloud.merge_ms", "ms"},
      {"core.detect_cooperative_ms", "ms"},
      {"core.recon_cache_hit_ratio", "frac"},
      // Detector.
      {"spod.detect_ms", "ms"},
      {"spod.preprocess_ms", "ms"},
      {"pointcloud.voxelize_ms", "ms"},
      {"spod.cluster_ms", "ms"},
      {"spod.split_ms", "ms"},
      {"spod.head_ms", "ms"},
      {"spod.input_points", "count"},
      {"spod.above_ground_points", "count"},
      {"spod.voxels", "count"},
      {"spod.max_cell_points", "count"},
      {"spod.clusters", "count"},
      {"spod.detections", "count"},
      // Edge service.
      {"serve.plan_window_ms", "ms"},
      {"serve.deliver_frame_ms", "ms"},
      {"serve.flush_ms", "ms"},
      {"serve.pump_timers_ms", "ms"},
      {"serve.batch_size", "count"},
      {"serve.queue_depth_max", "count"},
      {"serve.admit_ratio", "frac"},
      {"serve.downgraded", "count"},
      {"serve.rejected", "count"},
      {"serve.deadline_missed", "count"},
      {"serve.virtual_p99_ms", "ms"},  // modeled (virtual clock)
      // Generator, outside the system under test.
      {"gen.build_ms", "ms"},
      {"gen.transport_sim_ms", "ms"},
      // The tracing itself.
      {"trace.overhead_frac", "frac"},
      {"trace.coverage_frac", "frac"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = run_level.find(name);
    result->Add(name,
                it != run_level.end() ? it->second
                                      : tracer.MedianPerSample(name),
                unit);
  }
}

}  // namespace perfbench
