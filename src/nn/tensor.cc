#include "nn/tensor.h"

#include "common/simd.h"

namespace cooper::nn {

Tensor::Tensor(std::vector<std::size_t> shape, float fill) : shape_(std::move(shape)) {
  std::size_t n = 1;
  for (const auto d : shape_) n *= d;
  data_.assign(n, fill);
}

void Tensor::Relu() {
  // simd relu replicates std::max(v, 0.0f) bit-for-bit (keeps NaN and -0.0).
  common::simd::Active().relu(data_.data(), data_.size());
}

}  // namespace cooper::nn
