// AVX2 tier: 8-wide float / 4-wide double kernels.  Every body reproduces
// the scalar reference bit-for-bit: explicit mul-then-add (no FMA — this TU
// is compiled with -ffp-contract=off and never uses fmadd intrinsics),
// blends that copy std::max's "keep the first operand on ties and NaN"
// choice, and double arithmetic for the quantize/dequantize sweeps.  Tails
// shorter than one vector delegate to the scalar bodies.
#include <immintrin.h>

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

void ReluAvx2(float* x, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    // (v < 0) ? 0 : v — NaN and -0.0 keep v, exactly std::max(v, 0.0f).
    const __m256 neg = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(x + i, _mm256_blendv_ps(v, zero, neg));
  }
  ReluScalar(x + i, n - i);
}

void MaxIntoAvx2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_loadu_ps(dst + i);
    const __m256 s = _mm256_loadu_ps(src + i);
    // (d < s) ? s : d — ties and NaN keep d, matching std::max(d, s).
    const __m256 lt = _mm256_cmp_ps(d, s, _CMP_LT_OQ);
    _mm256_storeu_ps(dst + i, _mm256_blendv_ps(d, s, lt));
  }
  MaxIntoScalar(dst + i, src + i, n - i);
}

// Lane mask for "nonzero and finite": v != 0 (unordered compare so NaN
// counts as nonzero) AND |v| < inf (ordered, so NaN and +/-inf drop out).
inline __m256 NonzeroFiniteMask(__m256 v) {
  const __m256 nz = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_NEQ_UQ);
  const __m256 abs =
      _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
  const __m256 inf =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7f800000));
  const __m256 fin = _mm256_cmp_ps(abs, inf, _CMP_LT_OQ);
  return _mm256_and_ps(nz, fin);
}

void RangeNonzeroFiniteAvx2(const float* row, std::size_t n, float* lo,
                            float* hi, std::uint8_t* any) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(row + i);
    const __m256 mask = NonzeroFiniteMask(v);
    const __m256i anyv =
        _mm256_cvtepu8_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(any + i)));
    const __m256 notany = _mm256_castsi256_ps(
        _mm256_cmpeq_epi32(anyv, _mm256_setzero_si256()));
    const __m256 lov = _mm256_loadu_ps(lo + i);
    const __m256 hiv = _mm256_loadu_ps(hi + i);
    const __m256 cond_lo = _mm256_and_ps(
        mask, _mm256_or_ps(notany, _mm256_cmp_ps(v, lov, _CMP_LT_OQ)));
    const __m256 cond_hi = _mm256_and_ps(
        mask, _mm256_or_ps(notany, _mm256_cmp_ps(v, hiv, _CMP_GT_OQ)));
    _mm256_storeu_ps(lo + i, _mm256_blendv_ps(lov, v, cond_lo));
    _mm256_storeu_ps(hi + i, _mm256_blendv_ps(hiv, v, cond_hi));
    const int m = _mm256_movemask_ps(mask);
    for (int c = 0; c < 8; ++c) {
      if ((m >> c) & 1) any[i + static_cast<std::size_t>(c)] = 1;
    }
  }
  RangeNonzeroFiniteScalar(row + i, n - i, lo + i, hi + i, any + i);
}

// Rounds four clamped non-negative doubles half away from zero and returns
// them as 32-bit ints: r = floor(q); r += (q - r >= 0.5).
inline __m128i RoundHalfAwayClamped(__m256d q) {
  const __m256d r = _mm256_floor_pd(q);
  const __m256d frac = _mm256_sub_pd(q, r);
  const __m256d half = _mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_GE_OQ);
  const __m256d bump = _mm256_and_pd(half, _mm256_set1_pd(1.0));
  return _mm256_cvttpd_epi32(_mm256_add_pd(r, bump));
}

void QuantizeRowAvx2(const float* row, std::size_t n, const float* zero,
                     const float* scale, double qmax, std::uint16_t* q,
                     std::uint8_t* active) {
  const __m256d qmaxv = _mm256_set1_pd(qmax);
  const __m256d zerod = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(row + i);
    const __m256 act = NonzeroFiniteMask(v);
    const __m256 sv = _mm256_loadu_ps(scale + i);
    const __m256 spos = _mm256_cmp_ps(sv, _mm256_setzero_ps(), _CMP_GT_OQ);
    const __m256 live = _mm256_and_ps(act, spos);
    const __m256 zv = _mm256_loadu_ps(zero + i);

    __m128i half_q[2];
    for (int h = 0; h < 2; ++h) {
      const __m128 vf = h ? _mm256_extractf128_ps(v, 1)
                          : _mm256_castps256_ps128(v);
      const __m128 zf = h ? _mm256_extractf128_ps(zv, 1)
                          : _mm256_castps256_ps128(zv);
      const __m128 sf = h ? _mm256_extractf128_ps(sv, 1)
                          : _mm256_castps256_ps128(sv);
      const __m256d vd = _mm256_cvtps_pd(vf);
      const __m256d zd = _mm256_cvtps_pd(zf);
      const __m256d sd = _mm256_cvtps_pd(sf);
      // Dead lanes (inactive / scale <= 0) divide by junk; the result is
      // masked off below.  NaN from 0/0 clamps to 0 via max(q, 0) because
      // maxpd returns its second operand when the first is NaN.
      __m256d qd = _mm256_div_pd(_mm256_sub_pd(vd, zd), sd);
      qd = _mm256_min_pd(_mm256_max_pd(qd, zerod), qmaxv);
      half_q[h] = RoundHalfAwayClamped(qd);
    }
    // Pack 8 int32 lanes (all within [0, qmax] <= 65535) into uint16.
    __m128i q16 = _mm_packus_epi32(half_q[0], half_q[1]);
    // Zero the dead lanes: narrow the 8x32-bit live mask to 8x16 bits.
    const __m256i live_i = _mm256_castps_si256(live);
    const __m128i mask16 = _mm_packs_epi32(
        _mm256_castsi256_si128(live_i), _mm256_extracti128_si256(live_i, 1));
    q16 = _mm_and_si128(q16, mask16);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i), q16);
    const int m = _mm256_movemask_ps(act);
    for (int c = 0; c < 8; ++c) {
      active[i + static_cast<std::size_t>(c)] =
          static_cast<std::uint8_t>((m >> c) & 1);
    }
  }
  QuantizeRowScalar(row + i, n - i, zero + i, scale + i, qmax, q + i,
                    active + i);
}

void DequantizeRowAvx2(const std::uint16_t* q, const std::uint8_t* active,
                       std::size_t n, const float* zero, const float* scale,
                       float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i q16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
    const __m256i q32 = _mm256_cvtepu16_epi32(q16);
    const __m256 zv = _mm256_loadu_ps(zero + i);
    const __m256 sv = _mm256_loadu_ps(scale + i);
    __m128 half_out[2];
    for (int h = 0; h < 2; ++h) {
      const __m128i qh = h ? _mm256_extracti128_si256(q32, 1)
                           : _mm256_castsi256_si128(q32);
      const __m128 zf = h ? _mm256_extractf128_ps(zv, 1)
                          : _mm256_castps256_ps128(zv);
      const __m128 sf = h ? _mm256_extractf128_ps(sv, 1)
                          : _mm256_castps256_ps128(sv);
      const __m256d qd = _mm256_cvtepi32_pd(qh);
      const __m256d zd = _mm256_cvtps_pd(zf);
      const __m256d sd = _mm256_cvtps_pd(sf);
      const __m256d res = _mm256_add_pd(zd, _mm256_mul_pd(qd, sd));
      half_out[h] = _mm256_cvtpd_ps(res);
    }
    const __m256 res = _mm256_insertf128_ps(
        _mm256_castps128_ps256(half_out[0]), half_out[1], 1);
    const __m256i av = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(active + i)));
    const __m256 inactive = _mm256_castsi256_ps(
        _mm256_cmpeq_epi32(av, _mm256_setzero_si256()));
    _mm256_storeu_ps(out + i, _mm256_andnot_ps(inactive, res));
  }
  DequantizeRowScalar(q + i, active + i, n - i, zero + i, scale + i, out + i);
}

void RigidTransformAvx2(const double rt[12], const double* in,
                        std::size_t in_stride, std::size_t n, double* out,
                        std::size_t out_stride) {
  const __m256d r00 = _mm256_set1_pd(rt[0]), r01 = _mm256_set1_pd(rt[1]),
                r02 = _mm256_set1_pd(rt[2]), r10 = _mm256_set1_pd(rt[3]),
                r11 = _mm256_set1_pd(rt[4]), r12 = _mm256_set1_pd(rt[5]),
                r20 = _mm256_set1_pd(rt[6]), r21 = _mm256_set1_pd(rt[7]),
                r22 = _mm256_set1_pd(rt[8]), tx = _mm256_set1_pd(rt[9]),
                ty = _mm256_set1_pd(rt[10]), tz = _mm256_set1_pd(rt[11]);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* p0 = in + i * in_stride;
    const double* p1 = p0 + in_stride;
    const double* p2 = p1 + in_stride;
    const double* p3 = p2 + in_stride;
    const __m256d x = _mm256_set_pd(p3[0], p2[0], p1[0], p0[0]);
    const __m256d y = _mm256_set_pd(p3[1], p2[1], p1[1], p0[1]);
    const __m256d z = _mm256_set_pd(p3[2], p2[2], p1[2], p0[2]);
    // ((r?0*x + r?1*y) + r?2*z) + t? — the Pose::operator* association.
    const __m256d ox = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(r00, x),
                                    _mm256_mul_pd(r01, y)),
                      _mm256_mul_pd(r02, z)),
        tx);
    const __m256d oy = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(r10, x),
                                    _mm256_mul_pd(r11, y)),
                      _mm256_mul_pd(r12, z)),
        ty);
    const __m256d oz = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(r20, x),
                                    _mm256_mul_pd(r21, y)),
                      _mm256_mul_pd(r22, z)),
        tz);
    alignas(32) double bx[4], by[4], bz[4];
    _mm256_store_pd(bx, ox);
    _mm256_store_pd(by, oy);
    _mm256_store_pd(bz, oz);
    for (int k = 0; k < 4; ++k) {
      double* o = out + (i + static_cast<std::size_t>(k)) * out_stride;
      o[0] = bx[k];
      o[1] = by[k];
      o[2] = bz[k];
    }
  }
  RigidTransformScalar(rt, in + i * in_stride, in_stride, n - i,
                       out + i * out_stride, out_stride);
}

// One pass over the points for kGroups groups of 4 yaws starting at `j`.
// Several groups per pass give the min/max chains independent work to
// overlap.  minpd(lx, acc) is (lx < acc) ? lx : acc and maxpd(lx, acc) is
// (lx > acc) ? lx : acc: exactly std::min(acc, lx) / std::max(acc, lx),
// keeping the accumulator on ties, +/-0 and NaN.
template <int kGroups>
inline void RotatedBoundsPassAvx2(const double* cos_yaw, const double* sin_yaw,
                                  std::size_t j, std::size_t k,
                                  const double* xy, std::size_t stride,
                                  std::size_t n, double* bounds) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d neg_inf = _mm256_xor_pd(inf, sign);
  __m256d c[kGroups], s[kGroups], neg_s[kGroups];
  __m256d xmin[kGroups], xmax[kGroups], ymin[kGroups], ymax[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    c[g] = _mm256_loadu_pd(cos_yaw + j + 4 * g);
    s[g] = _mm256_loadu_pd(sin_yaw + j + 4 * g);
    neg_s[g] = _mm256_xor_pd(s[g], sign);  // -s as a sign flip, not 0 - s
    xmin[g] = ymin[g] = inf;
    xmax[g] = ymax[g] = neg_inf;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d x = _mm256_broadcast_sd(xy + i * stride);
    const __m256d y = _mm256_broadcast_sd(xy + i * stride + 1);
    for (int g = 0; g < kGroups; ++g) {
      const __m256d lx =
          _mm256_add_pd(_mm256_mul_pd(c[g], x), _mm256_mul_pd(s[g], y));
      const __m256d ly =
          _mm256_add_pd(_mm256_mul_pd(neg_s[g], x), _mm256_mul_pd(c[g], y));
      xmin[g] = _mm256_min_pd(lx, xmin[g]);
      xmax[g] = _mm256_max_pd(lx, xmax[g]);
      ymin[g] = _mm256_min_pd(ly, ymin[g]);
      ymax[g] = _mm256_max_pd(ly, ymax[g]);
    }
  }
  for (int g = 0; g < kGroups; ++g) {
    const std::size_t col = j + 4 * static_cast<std::size_t>(g);
    _mm256_storeu_pd(bounds + col, xmin[g]);
    _mm256_storeu_pd(bounds + k + col, xmax[g]);
    _mm256_storeu_pd(bounds + 2 * k + col, ymin[g]);
    _mm256_storeu_pd(bounds + 3 * k + col, ymax[g]);
  }
}

void RotatedBoundsAvx2(const double* cos_yaw, const double* sin_yaw,
                       std::size_t k, const double* xy, std::size_t stride,
                       std::size_t n, double* bounds) {
  std::size_t j = 0;
  for (; j + 8 <= k; j += 8) {
    RotatedBoundsPassAvx2<2>(cos_yaw, sin_yaw, j, k, xy, stride, n, bounds);
  }
  if (j + 4 <= k) {
    RotatedBoundsPassAvx2<1>(cos_yaw, sin_yaw, j, k, xy, stride, n, bounds);
    j += 4;
  }
  RotatedBoundsYawTail(cos_yaw, sin_yaw, j, k, xy, stride, n, bounds);
}

}  // namespace

const Kernels kAvx2Table = {
    Tier::kAvx2,
    ReluAvx2,
    MaxIntoAvx2,
    RangeNonzeroFiniteAvx2,
    QuantizeRowAvx2,
    DequantizeRowAvx2,
    RigidTransformAvx2,
    detail::SumStridedScalar,  // order-pinned reduction: scalar in all tiers
    RotatedBoundsAvx2,
    detail::Crc32Slice8,
};

}  // namespace cooper::common::simd
