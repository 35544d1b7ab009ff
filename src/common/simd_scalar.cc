// Scalar reference tier: the semantic definition of every common::simd
// kernel.  Compiled with -ffp-contract=off like every tier TU, so a
// contracting compiler cannot fuse the mul-then-add sequences the vector
// tiers replicate exactly.
#include <algorithm>
#include <cmath>
#include <limits>

#include "common/simd_internal.h"

namespace cooper::common::simd {
namespace detail {

void ReluScalar(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = (x[i] < 0.0f) ? 0.0f : x[i];
}

void MaxIntoScalar(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = (dst[i] < src[i]) ? src[i] : dst[i];
  }
}

void RangeNonzeroFiniteScalar(const float* row, std::size_t n, float* lo,
                              float* hi, std::uint8_t* any) {
  for (std::size_t c = 0; c < n; ++c) {
    const float v = row[c];
    if (v == 0.0f || !std::isfinite(v)) continue;
    if (!any[c] || v < lo[c]) lo[c] = v;
    if (!any[c] || v > hi[c]) hi[c] = v;
    any[c] = 1;
  }
}

void QuantizeRowScalar(const float* row, std::size_t n, const float* zero,
                       const float* scale, double qmax, std::uint16_t* q,
                       std::uint8_t* active) {
  for (std::size_t c = 0; c < n; ++c) {
    const float v = row[c];
    const bool act = v != 0.0f && std::isfinite(v);
    active[c] = act ? 1 : 0;
    std::uint16_t qc = 0;
    if (act && scale[c] > 0.0f) {
      double qd = (static_cast<double>(v) - static_cast<double>(zero[c])) /
                  static_cast<double>(scale[c]);
      qd = std::min(std::max(qd, 0.0), qmax);
      // Round half away from zero on the clamped non-negative value.  The
      // fraction qd - floor(qd) is exact (Sterbenz), so this matches
      // llround on every input the clamp admits — no 0.49999... + 0.5
      // double-rounding trap.
      const double r = std::floor(qd);
      qc = static_cast<std::uint16_t>(static_cast<std::int64_t>(r) +
                                      ((qd - r) >= 0.5 ? 1 : 0));
    }
    q[c] = qc;
  }
}

void DequantizeRowScalar(const std::uint16_t* q, const std::uint8_t* active,
                         std::size_t n, const float* zero, const float* scale,
                         float* out) {
  for (std::size_t c = 0; c < n; ++c) {
    out[c] = active[c]
                 ? static_cast<float>(static_cast<double>(zero[c]) +
                                      static_cast<double>(q[c]) *
                                          static_cast<double>(scale[c]))
                 : 0.0f;
  }
}

void RigidTransformScalar(const double rt[12], const double* in,
                          std::size_t in_stride, std::size_t n, double* out,
                          std::size_t out_stride) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = in + i * in_stride;
    const double x = p[0], y = p[1], z = p[2];
    double* o = out + i * out_stride;
    // Per component: ((r?0*x + r?1*y) + r?2*z) + t? — Pose::operator*'s
    // exact association, written to locals first so in-place works.
    const double ox = ((rt[0] * x + rt[1] * y) + rt[2] * z) + rt[9];
    const double oy = ((rt[3] * x + rt[4] * y) + rt[5] * z) + rt[10];
    const double oz = ((rt[6] * x + rt[7] * y) + rt[8] * z) + rt[11];
    o[0] = ox;
    o[1] = oy;
    o[2] = oz;
  }
}

double SumStridedScalar(const double* x, std::size_t stride, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i * stride];
  return acc;
}

void RotatedBoundsYawTail(const double* cos_yaw, const double* sin_yaw,
                          std::size_t first, std::size_t k, const double* xy,
                          std::size_t stride, std::size_t n, double* bounds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t j = first; j < k; ++j) {
    const double c = cos_yaw[j], s = sin_yaw[j], neg_s = -s;
    double xmin = kInf, xmax = -kInf, ymin = kInf, ymax = -kInf;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = xy[i * stride], y = xy[i * stride + 1];
      const double lx = c * x + s * y;
      const double ly = neg_s * x + c * y;
      xmin = std::min(xmin, lx);
      xmax = std::max(xmax, lx);
      ymin = std::min(ymin, ly);
      ymax = std::max(ymax, ly);
    }
    bounds[j] = xmin;
    bounds[k + j] = xmax;
    bounds[2 * k + j] = ymin;
    bounds[3 * k + j] = ymax;
  }
}

void RotatedBoundsScalar(const double* cos_yaw, const double* sin_yaw,
                         std::size_t k, const double* xy, std::size_t stride,
                         std::size_t n, double* bounds) {
  RotatedBoundsYawTail(cos_yaw, sin_yaw, 0, k, xy, stride, n, bounds);
}

const std::uint32_t (*CrcTables())[256] {
  static const auto* tables = [] {
    auto* t = new std::uint32_t[8][256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    return t;
  }();
  return tables;
}

std::uint32_t Crc32Scalar(const std::uint8_t* data, std::size_t size) {
  const auto* t = CrcTables();
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ data[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::uint32_t Crc32Slice8(const std::uint8_t* data, std::size_t size) {
  const auto* t = CrcTables();
  std::uint32_t c = 0xffffffffu;
  while (size >= 8) {
    // Endian-safe 32-bit little-endian loads; compilers fold these into
    // plain loads on LE targets.
    const std::uint32_t lo = static_cast<std::uint32_t>(data[0]) |
                             static_cast<std::uint32_t>(data[1]) << 8 |
                             static_cast<std::uint32_t>(data[2]) << 16 |
                             static_cast<std::uint32_t>(data[3]) << 24;
    const std::uint32_t hi = static_cast<std::uint32_t>(data[4]) |
                             static_cast<std::uint32_t>(data[5]) << 8 |
                             static_cast<std::uint32_t>(data[6]) << 16 |
                             static_cast<std::uint32_t>(data[7]) << 24;
    c ^= lo;
    c = t[7][c & 0xff] ^ t[6][(c >> 8) & 0xff] ^ t[5][(c >> 16) & 0xff] ^
        t[4][c >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    data += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ data[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace detail

const Kernels kScalarTable = {
    Tier::kScalar,
    detail::ReluScalar,
    detail::MaxIntoScalar,
    detail::RangeNonzeroFiniteScalar,
    detail::QuantizeRowScalar,
    detail::DequantizeRowScalar,
    detail::RigidTransformScalar,
    detail::SumStridedScalar,
    detail::RotatedBoundsScalar,
    detail::Crc32Scalar,
};

}  // namespace cooper::common::simd
