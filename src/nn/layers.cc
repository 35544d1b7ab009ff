#include "nn/layers.h"

#include <cmath>

namespace cooper::nn {
namespace {

// He-normal initialisation: stddev = sqrt(2 / fan_in).
void InitHe(Tensor& w, std::size_t fan_in, Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(rng.Normal(0.0, stddev));
  }
}

}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : weight_({out_features, in_features}), bias_({out_features}) {
  InitHe(weight_, in_features, rng);
}

Tensor Linear::Forward(const Tensor& x) const {
  COOPER_CHECK(x.rank() == 2 && x.dim(1) == weight_.dim(1));
  const std::size_t n = x.dim(0), in = weight_.dim(1), out = weight_.dim(0);
  Tensor y({n, out});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < out; ++o) {
      float acc = bias_[o];
      for (std::size_t k = 0; k < in; ++k) acc += x.At(i, k) * weight_.At(o, k);
      y.At(i, o) = acc;
    }
  }
  return y;
}

}  // namespace cooper::nn
