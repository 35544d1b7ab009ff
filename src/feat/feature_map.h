// Feature-level cooperative exchange (library extension, after F-Cooper
// [Chen et al., SEC 2019]).
//
// Cooper's DSRC feasibility analysis (§IV-G) makes the payload budget the
// binding constraint as the cooperator count grows.  Below the paper's two
// exchange rungs — raw clouds and ROI clouds — sits a third: the SPOD
// pipeline's *voxel feature tensor*, tapped after VFE encoding (detection
// itself clusters points, so the VFE runs only for this tap).  A feature map
// is an order of magnitude denser in information per byte than the points it
// summarizes: one row of C floats stands in for up to
// `max_points_per_voxel` returns.
//
// A `FeatureMap` is that tap, made portable: the sparse VFE tensor plus the
// voxel-grid metadata (origin, voxel size, extents) needed to re-express the
// sites in another vehicle's grid.  Everything is in the *sender's sensor
// frame*; the receiver aligns with the same Eq. 3 nav transform used for
// point clouds (see fusion.h).
#pragma once

#include <cstdint>

#include "geom/vec3.h"
#include "nn/tensor.h"
#include "pointcloud/voxel_grid.h"

namespace cooper::feat {

/// What an exchange package carries — the bandwidth ladder, highest fidelity
/// (and cost) first.  Wire values are stable: they are serialized as the
/// package header's level byte.
enum class ExchangeLevel : std::uint8_t {
  kRawCloud = 1,       // full-frame compressed point cloud
  kRoiCloud = 2,       // ROI-filtered compressed point cloud (paper default)
  kVoxelFeatures = 3,  // quantized VFE feature map (this subsystem)
};

const char* ExchangeLevelName(ExchangeLevel level);

/// A sparse voxel-feature tensor with the grid geometry that locates its
/// sites in the sender's sensor frame.  `tensor.coords` are grid-relative
/// integer voxels; site `c` covers the metric box
/// [origin + c*voxel_size, origin + (c+1)*voxel_size).
struct FeatureMap {
  nn::SparseTensor tensor;
  geom::Vec3 origin;      // metric position of voxel (0,0,0)'s min corner
  geom::Vec3 voxel_size;  // metres per voxel along each axis

  std::size_t num_active() const { return tensor.num_active(); }
  std::size_t channels() const { return tensor.channels(); }

  /// Metric center of an active site, sender sensor frame.
  geom::Vec3 SiteCenter(const pc::VoxelCoord& c) const {
    return {origin.x + (static_cast<double>(c.x) + 0.5) * voxel_size.x,
            origin.y + (static_cast<double>(c.y) + 0.5) * voxel_size.y,
            origin.z + (static_cast<double>(c.z) + 0.5) * voxel_size.z};
  }
};

/// Grid geometry of the *receiver's* detector, the target frame of fusion.
struct GridSpec {
  geom::Vec3 min_bound;
  geom::Vec3 max_bound;
  geom::Vec3 voxel_size;

  static GridSpec FromVoxelConfig(const pc::VoxelGridConfig& config) {
    return {config.min_bound, config.max_bound, config.voxel_size};
  }

  /// Voxel coordinate containing `p`, mirroring VoxelGrid's assignment
  /// (half-open bounds, floor quantization).  Returns false when outside.
  bool CoordOf(const geom::Vec3& p, pc::VoxelCoord* c) const;
};

}  // namespace cooper::feat
