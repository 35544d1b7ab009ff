// Minimal dense tensor for the SPOD network stages.
//
// Row-major float storage with up to 4 dimensions — enough for the VFE
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

  // Indexed access; the overloads match common layouts.
  float& At(std::size_t i, std::size_t j) { return data_[i * shape_[1] + j]; }
  float At(std::size_t i, std::size_t j) const { return data_[i * shape_[1] + j]; }
  float& At(std::size_t i, std::size_t j, std::size_t k) {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float At(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float& At(std::size_t i, std::size_t j, std::size_t k, std::size_t l) {
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }
  float At(std::size_t i, std::size_t j, std::size_t k, std::size_t l) const {
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }

  /// Elementwise max with 0 (ReLU) in place.
  void Relu();

  float MaxValue() const;
  float Sum() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Matrix product: (m x k) * (k x n) -> (m x n). Both rank-2.
Tensor MatMul(const Tensor& a, const Tensor& b);

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
