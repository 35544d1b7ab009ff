// Voxel Feature Encoding (VFE) layer after VoxelNet [31]: per-voxel,
// point-wise features are lifted through a linear+ReLU and max-pooled into a
// single voxel feature vector.  Input per point is the standard 7-vector
// (x, y, z, r, x - cx, y - cy, z - cz) with c the voxel centroid.
#pragma once

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "pointcloud/voxel_grid.h"

namespace cooper::nn {

class VoxelFeatureEncoder {
 public:
  /// `out_channels` is the encoded feature width per voxel.
  VoxelFeatureEncoder(std::size_t out_channels, Rng& rng);

  /// Encodes every occupied voxel of `grid` into a SparseTensor whose active
  /// sites are the voxel coordinates.
  SparseTensor Encode(const pc::PointCloud& cloud, const pc::VoxelGrid& grid) const;

  std::size_t out_channels() const { return fc_.out_features(); }

  static constexpr std::size_t kPointFeatureDim = 7;

 private:
  Linear fc_;
};

}  // namespace cooper::nn
