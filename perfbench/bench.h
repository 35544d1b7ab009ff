// Shared pieces of the repository benchmark driver: options, the in-memory
// span tracer, small statistics helpers, the result record and the
// reference-digest table.
//
// The driver reaches the system only through public functions of its
// layers (pointcloud, core, net, feat, spod, serve).  Every span is opened
// here, in the benchmark's own files, around one of those calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cooper.h"
#include "pointcloud/point_cloud.h"
#include "sim/scenario.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double PeakRssMb();
/// min(4, nproc): the thread cap of every workload.
int MaxThreads();
int Nproc();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Smoke mode: a few frames, checked against the committed digests.
  bool smoke = false;
  // Prints reference digests for `seed` instead of a result.
  bool emit_reference = false;
  std::string reference_path;
};

/// In-memory span recorder.  Each closed span adds its duration to its
/// name's total for the current sample (a frame, an edge window or a probe);
/// the run's metrics are read from those totals when it ends.  A disabled
/// tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Starts a new sample; later spans and values belong to it.
  void BeginSample() {
    if (enabled_) ++sample_;
  }
  void Record(const char* name, Clock::time_point t0, Clock::time_point t1);
  /// Adds `v` to the current sample's value of `name` (counts, bytes).
  void Value(const char* name, double v);

  /// Per-name median over the samples in which the name occurs, of the
  /// sample's summed span time (ms) or summed value.  0 when never seen.
  double MedianPerSample(const std::string& name) const;

 private:
  bool enabled_ = false;
  int sample_ = 0;
  std::map<std::string, std::map<int, double>> per_sample_;
};

/// Scoped span around one call into a layer.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        t0_(tracer_ != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->Record(name_, t0_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  Clock::time_point t0_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Printed on its own line before the result: seed, CPU, configuration.
  std::vector<std::pair<std::string, std::string>> provenance;
  std::vector<std::string> errors;
  // Reference digests computed by this run (--emit-reference).
  std::vector<std::uint64_t> reference;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Stamp(const std::string& key, const std::string& json_value) {
    provenance.emplace_back(key, json_value);
  }
  void Error(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

/// Committed reference digests, keyed by (workload, seed).  Null when the
/// table has no row for the pair.
const std::vector<std::uint64_t>* FindReference(const std::string& path,
                                                const std::string& workload,
                                                std::uint64_t seed);

/// `pool` noisy scans from viewpoint `view` of `scenario`, under
/// `scenario.lidar`.  Scan j draws its noise from (seed, view, j) alone, so a
/// scan does not depend on the pool size.
std::vector<cooper::pc::PointCloud> ScanPool(
    const cooper::sim::Scenario& scenario, std::size_t view, int pool,
    std::uint64_t seed);
/// Exact GPS/IMU reading and lidar mount of viewpoint `view`.
cooper::core::NavMetadata NavOf(const cooper::sim::Scenario& scenario,
                                std::size_t view);
/// Ground-truth cars within 55 m (eval's detection range) of viewpoint
/// `view`'s sensor, in that sensor's frame.
std::vector<cooper::geom::Box3> CarsNear(const cooper::sim::Scenario& scenario,
                                         std::size_t view);

/// Stamps CPU features, SIMD tier, nproc and the seed.
void StampHost(RunResult* result, const Options& options, int threads);
std::string JsonString(const std::string& s);

/// Confident detections matched against ground-truth cars.
int MatchedCars(const std::vector<cooper::spod::Detection>& detections,
                const std::vector<cooper::geom::Box3>& cars);

/// Receiver-path layer probe for the traced run.  Re-runs one fusion's
/// receive path as separate public calls, each under its own span:
/// reassembly, package parse, payload decode, densify, reconstruct, feature
/// alignment, merge, and the detector with its voxelize / cluster / split
/// stages.  `packages` holds each cooperator package's transport frames.
/// Returns the detection digest of the probed detector call.
std::uint64_t ProbeReceiverPath(
    const cooper::core::CooperPipeline& pipeline,
    const cooper::pc::PointCloud& local_cloud,
    const cooper::core::NavMetadata& local_nav,
    const std::vector<std::vector<std::vector<std::uint8_t>>>& packages,
    Tracer* tracer);

/// The per-layer metrics every workload reports in a traced run.  A name in
/// `run_level` takes that value; every other name is read from the tracer
/// (names a workload never records read 0).
void AddLayerMetrics(const Tracer& tracer,
                     const std::map<std::string, double>& run_level,
                     RunResult* result);

RunResult RunFrameWorkload(const Options& options);
RunResult RunEdgeWorkload(const Options& options);

}  // namespace perfbench
