// NEON tier (aarch64): 4-wide float / 2-wide double kernels.  Same
// bit-exactness contract as the x86 tiers — explicit mul-then-add (no
// vfmaq), blends replicating `(a < b) ? b : a` keep-first semantics, and
// scalar tails.  Compiled only on aarch64; x86 builds never see this TU.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <limits>

#include "common/simd_internal.h"

namespace cooper::common::simd {
namespace {

using detail::DequantizeRowScalar;
using detail::MaxIntoScalar;
using detail::QuantizeRowScalar;
using detail::RangeNonzeroFiniteScalar;
using detail::ReluScalar;
using detail::RigidTransformScalar;
using detail::RotatedBoundsYawTail;

void ReluNeon(float* x, std::size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    const uint32x4_t neg = vcltq_f32(v, zero);  // NaN -> false, keeps NaN
    vst1q_f32(x + i, vbslq_f32(neg, zero, v));
  }
  ReluScalar(x + i, n - i);
}

void MaxIntoNeon(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t d = vld1q_f32(dst + i);
    const float32x4_t s = vld1q_f32(src + i);
    const uint32x4_t lt = vcltq_f32(d, s);
    vst1q_f32(dst + i, vbslq_f32(lt, s, d));
  }
  MaxIntoScalar(dst + i, src + i, n - i);
}

inline uint32x4_t NonzeroFiniteMask(float32x4_t v) {
  const uint32x4_t nz = vmvnq_u32(vceqq_f32(v, vdupq_n_f32(0.0f)));
  const uint32x4_t abs_bits =
      vandq_u32(vreinterpretq_u32_f32(v), vdupq_n_u32(0x7fffffffu));
  const uint32x4_t fin = vcltq_u32(abs_bits, vdupq_n_u32(0x7f800000u));
  return vandq_u32(nz, fin);
}

inline uint32x4_t LoadBytesU32(const std::uint8_t* p) {
  alignas(16) std::uint32_t tmp[4] = {p[0], p[1], p[2], p[3]};
  return vld1q_u32(tmp);
}

void RangeNonzeroFiniteNeon(const float* row, std::size_t n, float* lo,
                            float* hi, std::uint8_t* any) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(row + i);
    const uint32x4_t mask = NonzeroFiniteMask(v);
    const uint32x4_t notany = vceqq_u32(LoadBytesU32(any + i), vdupq_n_u32(0));
    const float32x4_t lov = vld1q_f32(lo + i);
    const float32x4_t hiv = vld1q_f32(hi + i);
    const uint32x4_t cond_lo =
        vandq_u32(mask, vorrq_u32(notany, vcltq_f32(v, lov)));
    const uint32x4_t cond_hi =
        vandq_u32(mask, vorrq_u32(notany, vcgtq_f32(v, hiv)));
    vst1q_f32(lo + i, vbslq_f32(cond_lo, v, lov));
    vst1q_f32(hi + i, vbslq_f32(cond_hi, v, hiv));
    alignas(16) std::uint32_t m[4];
    vst1q_u32(m, mask);
    for (int c = 0; c < 4; ++c) {
      if (m[c]) any[i + static_cast<std::size_t>(c)] = 1;
    }
  }
  RangeNonzeroFiniteScalar(row + i, n - i, lo + i, hi + i, any + i);
}

inline int32x2_t RoundHalfAwayClamped2(float64x2_t qd) {
  const float64x2_t r = vrndmq_f64(qd);  // floor
  const float64x2_t frac = vsubq_f64(qd, r);
  const uint64x2_t half = vcgeq_f64(frac, vdupq_n_f64(0.5));
  const float64x2_t bump = vreinterpretq_f64_u64(
      vandq_u64(half, vreinterpretq_u64_f64(vdupq_n_f64(1.0))));
  const int64x2_t q64 = vcvtq_s64_f64(vaddq_f64(r, bump));  // exact integer
  return vmovn_s64(q64);
}

void QuantizeRowNeon(const float* row, std::size_t n, const float* zero,
                     const float* scale, double qmax, std::uint16_t* q,
                     std::uint8_t* active) {
  const float64x2_t qmaxv = vdupq_n_f64(qmax);
  const float64x2_t zerod = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(row + i);
    const uint32x4_t act = NonzeroFiniteMask(v);
    const float32x4_t sv = vld1q_f32(scale + i);
    const uint32x4_t spos = vcgtq_f32(sv, vdupq_n_f32(0.0f));
    const uint32x4_t live = vandq_u32(act, spos);
    const float32x4_t zv = vld1q_f32(zero + i);

    int32x2_t half_q[2];
    for (int h = 0; h < 2; ++h) {
      const float32x2_t vf = h ? vget_high_f32(v) : vget_low_f32(v);
      const float32x2_t zf = h ? vget_high_f32(zv) : vget_low_f32(zv);
      const float32x2_t sf = h ? vget_high_f32(sv) : vget_low_f32(sv);
      const float64x2_t vd = vcvt_f64_f32(vf);
      const float64x2_t zd = vcvt_f64_f32(zf);
      const float64x2_t sd = vcvt_f64_f32(sf);
      float64x2_t qd = vdivq_f64(vsubq_f64(vd, zd), sd);
      // vmaxnmq suppresses the NaN a 0/0 dead lane produces (clamps to 0);
      // after it qd is NaN-free so plain vminq is fine for the upper clamp.
      qd = vminq_f64(vmaxnmq_f64(qd, zerod), qmaxv);
      half_q[h] = RoundHalfAwayClamped2(qd);
    }
    const int32x4_t q32 = vcombine_s32(half_q[0], half_q[1]);
    uint16x4_t q16 = vqmovun_s32(q32);
    const uint16x4_t mask16 = vmovn_u32(live);
    q16 = vand_u16(q16, mask16);
    vst1_u16(q + i, q16);
    alignas(16) std::uint32_t m[4];
    vst1q_u32(m, act);
    for (int c = 0; c < 4; ++c) {
      active[i + static_cast<std::size_t>(c)] =
          static_cast<std::uint8_t>(m[c] ? 1 : 0);
    }
  }
  QuantizeRowScalar(row + i, n - i, zero + i, scale + i, qmax, q + i,
                    active + i);
}

void DequantizeRowNeon(const std::uint16_t* q, const std::uint8_t* active,
                       std::size_t n, const float* zero, const float* scale,
                       float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t q32 = vmovl_u16(vld1_u16(q + i));
    const float32x4_t zv = vld1q_f32(zero + i);
    const float32x4_t sv = vld1q_f32(scale + i);
    float32x2_t half_out[2];
    for (int h = 0; h < 2; ++h) {
      const uint32x2_t qh = h ? vget_high_u32(q32) : vget_low_u32(q32);
      const float32x2_t zf = h ? vget_high_f32(zv) : vget_low_f32(zv);
      const float32x2_t sf = h ? vget_high_f32(sv) : vget_low_f32(sv);
      const float64x2_t qd = vcvtq_f64_u64(vmovl_u32(qh));
      const float64x2_t zd = vcvt_f64_f32(zf);
      const float64x2_t sd = vcvt_f64_f32(sf);
      const float64x2_t res = vaddq_f64(zd, vmulq_f64(qd, sd));
      half_out[h] = vcvt_f32_f64(res);
    }
    const float32x4_t res = vcombine_f32(half_out[0], half_out[1]);
    const uint32x4_t av = LoadBytesU32(active + i);
    const uint32x4_t keep = vmvnq_u32(vceqq_u32(av, vdupq_n_u32(0)));
    vst1q_f32(out + i,
              vreinterpretq_f32_u32(
                  vandq_u32(vreinterpretq_u32_f32(res), keep)));
  }
  DequantizeRowScalar(q + i, active + i, n - i, zero + i, scale + i, out + i);
}

void RigidTransformNeon(const double rt[12], const double* in,
                        std::size_t in_stride, std::size_t n, double* out,
                        std::size_t out_stride) {
  const float64x2_t r00 = vdupq_n_f64(rt[0]), r01 = vdupq_n_f64(rt[1]),
                    r02 = vdupq_n_f64(rt[2]), r10 = vdupq_n_f64(rt[3]),
                    r11 = vdupq_n_f64(rt[4]), r12 = vdupq_n_f64(rt[5]),
                    r20 = vdupq_n_f64(rt[6]), r21 = vdupq_n_f64(rt[7]),
                    r22 = vdupq_n_f64(rt[8]), tx = vdupq_n_f64(rt[9]),
                    ty = vdupq_n_f64(rt[10]), tz = vdupq_n_f64(rt[11]);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const double* p0 = in + i * in_stride;
    const double* p1 = p0 + in_stride;
    alignas(16) const double xs[2] = {p0[0], p1[0]};
    alignas(16) const double ys[2] = {p0[1], p1[1]};
    alignas(16) const double zs[2] = {p0[2], p1[2]};
    const float64x2_t x = vld1q_f64(xs);
    const float64x2_t y = vld1q_f64(ys);
    const float64x2_t z = vld1q_f64(zs);
    const float64x2_t ox = vaddq_f64(
        vaddq_f64(vaddq_f64(vmulq_f64(r00, x), vmulq_f64(r01, y)),
                  vmulq_f64(r02, z)),
        tx);
    const float64x2_t oy = vaddq_f64(
        vaddq_f64(vaddq_f64(vmulq_f64(r10, x), vmulq_f64(r11, y)),
                  vmulq_f64(r12, z)),
        ty);
    const float64x2_t oz = vaddq_f64(
        vaddq_f64(vaddq_f64(vmulq_f64(r20, x), vmulq_f64(r21, y)),
                  vmulq_f64(r22, z)),
        tz);
    alignas(16) double bx[2], by[2], bz[2];
    vst1q_f64(bx, ox);
    vst1q_f64(by, oy);
    vst1q_f64(bz, oz);
    for (int k = 0; k < 2; ++k) {
      double* o = out + (i + static_cast<std::size_t>(k)) * out_stride;
      o[0] = bx[k];
      o[1] = by[k];
      o[2] = bz[k];
    }
  }
  RigidTransformScalar(rt, in + i * in_stride, in_stride, n - i,
                       out + i * out_stride, out_stride);
}

// One pass over the points for kGroups groups of 2 yaws starting at `j`.
// vminq_f64/vmaxq_f64 return NaN when either input is NaN, unlike
// std::min/std::max, so the running bounds use compare + vbslq_f64:
// (lx < acc) ? lx : acc and (lx > acc) ? lx : acc keep the accumulator on
// ties, +/-0 and NaN exactly like std::min(acc, lx) / std::max(acc, lx).
template <int kGroups>
inline void RotatedBoundsPassNeon(const double* cos_yaw, const double* sin_yaw,
                                  std::size_t j, std::size_t k,
                                  const double* xy, std::size_t stride,
                                  std::size_t n, double* bounds) {
  const float64x2_t inf = vdupq_n_f64(std::numeric_limits<double>::infinity());
  const float64x2_t neg_inf = vnegq_f64(inf);
  float64x2_t c[kGroups], s[kGroups], neg_s[kGroups];
  float64x2_t xmin[kGroups], xmax[kGroups], ymin[kGroups], ymax[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    c[g] = vld1q_f64(cos_yaw + j + 2 * g);
    s[g] = vld1q_f64(sin_yaw + j + 2 * g);
    neg_s[g] = vnegq_f64(s[g]);  // FNEG flips the sign bit: -s, not 0 - s
    xmin[g] = ymin[g] = inf;
    xmax[g] = ymax[g] = neg_inf;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float64x2_t x = vld1q_dup_f64(xy + i * stride);
    const float64x2_t y = vld1q_dup_f64(xy + i * stride + 1);
    for (int g = 0; g < kGroups; ++g) {
      const float64x2_t lx =
          vaddq_f64(vmulq_f64(c[g], x), vmulq_f64(s[g], y));
      const float64x2_t ly =
          vaddq_f64(vmulq_f64(neg_s[g], x), vmulq_f64(c[g], y));
      xmin[g] = vbslq_f64(vcltq_f64(lx, xmin[g]), lx, xmin[g]);
      xmax[g] = vbslq_f64(vcgtq_f64(lx, xmax[g]), lx, xmax[g]);
      ymin[g] = vbslq_f64(vcltq_f64(ly, ymin[g]), ly, ymin[g]);
      ymax[g] = vbslq_f64(vcgtq_f64(ly, ymax[g]), ly, ymax[g]);
    }
  }
  for (int g = 0; g < kGroups; ++g) {
    const std::size_t col = j + 2 * static_cast<std::size_t>(g);
    vst1q_f64(bounds + col, xmin[g]);
    vst1q_f64(bounds + k + col, xmax[g]);
    vst1q_f64(bounds + 2 * k + col, ymin[g]);
    vst1q_f64(bounds + 3 * k + col, ymax[g]);
  }
}

void RotatedBoundsNeon(const double* cos_yaw, const double* sin_yaw,
                       std::size_t k, const double* xy, std::size_t stride,
                       std::size_t n, double* bounds) {
  std::size_t j = 0;
  for (; j + 4 <= k; j += 4) {
    RotatedBoundsPassNeon<2>(cos_yaw, sin_yaw, j, k, xy, stride, n, bounds);
  }
  if (j + 2 <= k) {
    RotatedBoundsPassNeon<1>(cos_yaw, sin_yaw, j, k, xy, stride, n, bounds);
    j += 2;
  }
  RotatedBoundsYawTail(cos_yaw, sin_yaw, j, k, xy, stride, n, bounds);
}

}  // namespace

const Kernels kNeonTable = {
    Tier::kNeon,
    ReluNeon,
    MaxIntoNeon,
    RangeNonzeroFiniteNeon,
    QuantizeRowNeon,
    DequantizeRowNeon,
    RigidTransformNeon,
    detail::SumStridedScalar,  // order-pinned reduction: scalar in all tiers
    RotatedBoundsNeon,
    detail::Crc32Slice8,
};

}  // namespace cooper::common::simd

#endif  // defined(__aarch64__)
