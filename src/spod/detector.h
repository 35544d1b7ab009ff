// SPOD — Sparse Point-cloud Object Detection (paper §III, Fig. 1).
//
// Detection stages, each timed by an obs span inside `spod.detect`:
//   1. preprocessing (`spod.preprocess`) — invalid-point removal and the
//      ground cut, after spherical-projection densification of sparse input
//      [27] (`spod.densify`, single-origin Detect only);
//   2. clustering (`spod.cluster`) — BEV clustering of above-ground points;
//   3. proposals (`spod.proposals`) — oversized-cluster split, oriented-box
//      fit and completion, evidence-calibrated confidence (DESIGN.md §4.3),
//      opposite-face pairing and NMS.
// The paper's learned sparse-conv middle layers and RPN head are not
// modelled: detections come from the clustered above-ground points.  The
// VFE encoder [31] survives only as the sender-side feature tap
// (ExtractFeatureMap) for feature-level exchange.
//
// The same detector instance works on dense 64-beam clouds, sparse 16-beam
// clouds and fused multi-vehicle clouds — the property Cooper depends on.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "feat/feature_map.h"
#include "nn/vfe.h"
#include "spod/confidence.h"
#include "spod/detection.h"
#include "spod/scratch.h"

namespace cooper::spod {

struct SpodResult {
  std::vector<Detection> detections;
  std::size_t num_input_points = 0;
};

class SpodDetector {
 public:
  /// `sensor` describes the angular resolution of the *receiving* vehicle's
  /// sensor (for fused clouds the receiver's own; extra transmitter points
  /// only raise evidence, as in the paper).
  SpodDetector(const SpodConfig& config, const SensorResolution& sensor,
               std::uint64_t weight_seed = 42);

  /// Full pipeline, including spherical densification when the config asks
  /// for it.  Use only on clouds from a single sensor origin — densification
  /// assumes one viewpoint.
  SpodResult Detect(const pc::PointCloud& cloud) const;

  /// Pipeline minus the densification step — for fused multi-origin clouds,
  /// whose sources must be densified separately (in their own sensor frames)
  /// before merging; a single receiver-centred range image would discard
  /// remote points hidden behind local occluders.
  SpodResult DetectPreprocessed(const pc::PointCloud& cloud) const;

  /// Exactly DetectPreprocessed(cloud); `maps` is ignored.  Cooperator
  /// features reach detection only as feat::AlignToGrid pseudo-points merged
  /// into `cloud`.  Kept only so the benchmark's receiver-path probe keeps
  /// compiling until its next change moves it to DetectPreprocessed.
  SpodResult DetectWithFeatures(
      const pc::PointCloud& cloud,
      const std::vector<const feat::FeatureMap*>& /*maps*/) const {
    return DetectPreprocessed(cloud);
  }

  /// Sender-side feature tap: the VFE voxel-feature tensor of `cloud` (own
  /// sensor frame), with the grid geometry needed to re-express it elsewhere.
  /// Runs preprocessing (densify-if-configured, invalid-point removal,
  /// ground cut) exactly as Detect would, voxelises the above-ground points
  /// over the detector's grid, then VFE-encodes the occupied voxels.
  feat::FeatureMap ExtractFeatureMap(const pc::PointCloud& cloud) const;

  /// The densification preprocessing step alone (no-op unless the config
  /// enables it).  The cloud must be in its own sensor frame.
  pc::PointCloud Densify(const pc::PointCloud& cloud) const;

  const SpodConfig& config() const { return config_; }
  const SensorResolution& sensor() const { return sensor_; }

 private:
  // Network stages (fixed deterministic weights; see DESIGN.md §4.3).
  struct Net {
    nn::VoxelFeatureEncoder vfe;
  };
  static Net MakeNet(std::uint64_t seed);

  // DetectPreprocessed's stages, without its enclosing `spod.detect` span
  // (Detect opens that span around densify too).
  SpodResult RunStages(const pc::PointCloud& cloud) const;

  SpodConfig config_;
  SensorResolution sensor_;
  Net net_;
  // Cross-frame working set (cleared, not freed, between Detect calls).
  // Mutable: Detect stays const for callers, but one instance must not
  // Detect concurrently.
  mutable PipelineScratch scratch_;
};

/// Convenience: sensor resolution from beam geometry.
SensorResolution MakeSensorResolution(int beams, double fov_up_deg,
                                      double fov_down_deg, int azimuth_steps);

}  // namespace cooper::spod
