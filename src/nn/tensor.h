// Minimal dense tensor for the SPOD network stages.
//
// Row-major float storage with rank-2 indexed access — enough for the VFE
// (N x C) and its point-feature batches.  No autograd: the network runs
// inference with fixed weights (see DESIGN.md §4.3).
#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "pointcloud/voxel_grid.h"

namespace cooper::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape, float fill = 0.0f);

  static Tensor Zeros(std::vector<std::size_t> shape) { return Tensor(std::move(shape)); }

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  std::size_t dim(std::size_t i) const { return shape_[i]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  // Row-major (rank-2) indexed access.
  float& At(std::size_t i, std::size_t j) { return data_[i * shape_[1] + j]; }
  float At(std::size_t i, std::size_t j) const { return data_[i * shape_[1] + j]; }

  /// Elementwise max with 0 (ReLU) in place.
  void Relu();

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Sparse rank-3 feature field: a list of active voxel coordinates plus a
/// dense (N x C) feature matrix, one row per active site.
struct SparseTensor {
  std::vector<pc::VoxelCoord> coords;
  Tensor features;  // (N x C)
  pc::VoxelCoord spatial_shape;  // grid extents (exclusive upper bound)

  std::size_t num_active() const { return coords.size(); }
  std::size_t channels() const {
    return features.rank() == 2 ? features.dim(1) : 0;
  }
};

}  // namespace cooper::nn
