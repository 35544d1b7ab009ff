// Dense layer for the VFE: fully-connected.  Weights are deterministic
// (seeded He initialisation or handcrafted), see DESIGN.md §4.3.
#pragma once

#include "common/rng.h"
#include "nn/tensor.h"

namespace cooper::nn {

/// y = x * W^T + b, x: (N x in), W: (out x in), y: (N x out).
class Linear {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor Forward(const Tensor& x) const;

  std::size_t in_features() const { return weight_.dim(1); }
  std::size_t out_features() const { return weight_.dim(0); }

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  Tensor weight_;  // (out x in)
  Tensor bias_;    // (out)
};

}  // namespace cooper::nn
