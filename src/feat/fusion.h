// Alignment of cooperator feature maps into the ego grid (F-Cooper's
// voxel-level exchange, receiver side).
//
// Feature maps arrive in the *sender's* sensor frame.  `AlignToGrid`
// re-expresses a decoded map in the ego detector grid: each active site's
// metric center is pushed through the Eq. 3 nav transform
// (`ego_from_sender`) and re-quantized into the ego `GridSpec`.  Sites
// landing outside the ego grid are dropped; sites colliding on the same ego
// voxel maxout-merge on the spot.  Alignment also emits one *pseudo-point*
// per surviving site (the transformed site center); those pseudo-points are
// what the receiver merges into its fused cloud, so the detector gains
// clusterable evidence where only the cooperator saw structure.  The session
// merges lanes in ascending sender id, so the fused cloud is a pure function
// of the inputs — bit-identical at any thread count.
//
// ICP refinement is intentionally not applied at this level: refinement
// needs the raw returns, which feature packages exist to avoid shipping.
// Nav-only alignment (Eq. 3) plus voxel-sized quantization slack is the
// operating point, matching F-Cooper's GPS/IMU-aligned evaluation.
#pragma once

#include <vector>

#include "feat/feature_map.h"
#include "geom/pose.h"
#include "pointcloud/point_cloud.h"

namespace cooper::feat {

/// A cooperator's feature map after alignment into the ego grid, plus the
/// pseudo-points that stand in for its (unsent) returns.
struct AlignedFeatures {
  FeatureMap map;          // sites in ego grid coordinates
  pc::PointCloud pseudo;   // one point per site, ego sensor frame
};

/// Reflectance stamped on pseudo-points, so they are recognizable in fused
/// clouds (real returns carry sensor-derived values).
inline constexpr float kPseudoPointReflectance = 0.5f;

/// Re-expresses `map` (sender frame) in the ego grid via `ego_from_sender`
/// (Eq. 3 pose difference).  Deterministic: sites are visited in stored
/// order; colliding sites merge by channel-wise max into the first
/// occurrence, so output order is first-appearance order.
AlignedFeatures AlignToGrid(const FeatureMap& map,
                            const geom::Pose& ego_from_sender,
                            const GridSpec& grid);

/// Sender-side spatial max-pooling: merges `factor`^3 fine voxels into one
/// coarse site by channel-wise max (F-Cooper ships coarse feature maps for
/// exactly this reason — occupied sites thin out much faster than the
/// information they summarize).  The coarse grid keeps the fine origin;
/// voxel_size scales by `factor` and coords/shape divide by it, so the
/// receiver's AlignToGrid needs no special casing.  `factor <= 1` returns the
/// map unchanged.  Deterministic: sites are visited in stored order and
/// colliding fine sites merge into the first occurrence.
FeatureMap MaxPool(const FeatureMap& map, int factor);

}  // namespace cooper::feat
