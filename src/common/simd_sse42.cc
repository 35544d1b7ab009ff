// SSE4.2 tier: 4-wide float / 2-wide double kernels.  Same bit-exactness
// contract as the AVX2 tier (see simd_avx2.cc); this tier exists for x86-64
// parts without AVX2 and as an extra point on the tail/equality test sweep.
#include <nmmintrin.h>
#include <smmintrin.h>

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

void ReluSse(float* x, std::size_t n) {
  const __m128 zero = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v = _mm_loadu_ps(x + i);
    const __m128 neg = _mm_cmplt_ps(v, zero);
    _mm_storeu_ps(x + i, _mm_blendv_ps(v, zero, neg));
  }
  ReluScalar(x + i, n - i);
}

void MaxIntoSse(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 d = _mm_loadu_ps(dst + i);
    const __m128 s = _mm_loadu_ps(src + i);
    const __m128 lt = _mm_cmplt_ps(d, s);
    _mm_storeu_ps(dst + i, _mm_blendv_ps(d, s, lt));
  }
  MaxIntoScalar(dst + i, src + i, n - i);
}

inline __m128 NonzeroFiniteMask(__m128 v) {
  const __m128 nz = _mm_cmpneq_ps(v, _mm_setzero_ps());  // NaN != 0 -> true
  const __m128 abs =
      _mm_and_ps(v, _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff)));
  const __m128 inf = _mm_castsi128_ps(_mm_set1_epi32(0x7f800000));
  const __m128 fin = _mm_cmplt_ps(abs, inf);  // NaN/inf -> false
  return _mm_and_ps(nz, fin);
}

void RangeNonzeroFiniteSse(const float* row, std::size_t n, float* lo,
                           float* hi, std::uint8_t* any) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v = _mm_loadu_ps(row + i);
    const __m128 mask = NonzeroFiniteMask(v);
    const __m128i anyv = _mm_cvtepu8_epi32(
        _mm_cvtsi32_si128(static_cast<int>(
            static_cast<std::uint32_t>(any[i]) |
            static_cast<std::uint32_t>(any[i + 1]) << 8 |
            static_cast<std::uint32_t>(any[i + 2]) << 16 |
            static_cast<std::uint32_t>(any[i + 3]) << 24)));
    const __m128 notany =
        _mm_castsi128_ps(_mm_cmpeq_epi32(anyv, _mm_setzero_si128()));
    const __m128 lov = _mm_loadu_ps(lo + i);
    const __m128 hiv = _mm_loadu_ps(hi + i);
    const __m128 cond_lo =
        _mm_and_ps(mask, _mm_or_ps(notany, _mm_cmplt_ps(v, lov)));
    const __m128 cond_hi =
        _mm_and_ps(mask, _mm_or_ps(notany, _mm_cmpgt_ps(v, hiv)));
    _mm_storeu_ps(lo + i, _mm_blendv_ps(lov, v, cond_lo));
    _mm_storeu_ps(hi + i, _mm_blendv_ps(hiv, v, cond_hi));
    const int m = _mm_movemask_ps(mask);
    for (int c = 0; c < 4; ++c) {
      if ((m >> c) & 1) any[i + static_cast<std::size_t>(c)] = 1;
    }
  }
  RangeNonzeroFiniteScalar(row + i, n - i, lo + i, hi + i, any + i);
}

inline __m128i RoundHalfAwayClamped2(__m128d q) {
  const __m128d r = _mm_floor_pd(q);
  const __m128d frac = _mm_sub_pd(q, r);
  const __m128d half = _mm_cmpge_pd(frac, _mm_set1_pd(0.5));
  const __m128d bump = _mm_and_pd(half, _mm_set1_pd(1.0));
  return _mm_cvttpd_epi32(_mm_add_pd(r, bump));  // 2 ints in the low half
}

void QuantizeRowSse(const float* row, std::size_t n, const float* zero,
                    const float* scale, double qmax, std::uint16_t* q,
                    std::uint8_t* active) {
  const __m128d qmaxv = _mm_set1_pd(qmax);
  const __m128d zerod = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v = _mm_loadu_ps(row + i);
    const __m128 act = NonzeroFiniteMask(v);
    const __m128 sv = _mm_loadu_ps(scale + i);
    const __m128 spos = _mm_cmpgt_ps(sv, _mm_setzero_ps());
    const __m128 live = _mm_and_ps(act, spos);
    const __m128 zv = _mm_loadu_ps(zero + i);

    __m128i half_q[2];
    for (int h = 0; h < 2; ++h) {
      const __m128 vf = h ? _mm_movehl_ps(v, v) : v;
      const __m128 zf = h ? _mm_movehl_ps(zv, zv) : zv;
      const __m128 sf = h ? _mm_movehl_ps(sv, sv) : sv;
      const __m128d vd = _mm_cvtps_pd(vf);
      const __m128d zd = _mm_cvtps_pd(zf);
      const __m128d sd = _mm_cvtps_pd(sf);
      __m128d qd = _mm_div_pd(_mm_sub_pd(vd, zd), sd);
      // maxpd returns its second operand when the first is NaN, so 0/0
      // junk in dead lanes clamps to 0 before the round.
      qd = _mm_min_pd(_mm_max_pd(qd, zerod), qmaxv);
      half_q[h] = RoundHalfAwayClamped2(qd);
    }
    const __m128i q32 = _mm_unpacklo_epi64(half_q[0], half_q[1]);
    __m128i q16 = _mm_packus_epi32(q32, q32);
    const __m128i live_i = _mm_castps_si128(live);
    const __m128i mask16 = _mm_packs_epi32(live_i, live_i);
    q16 = _mm_and_si128(q16, mask16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i), q16);
    const int m = _mm_movemask_ps(act);
    for (int c = 0; c < 4; ++c) {
      active[i + static_cast<std::size_t>(c)] =
          static_cast<std::uint8_t>((m >> c) & 1);
    }
  }
  QuantizeRowScalar(row + i, n - i, zero + i, scale + i, qmax, q + i,
                    active + i);
}

void DequantizeRowSse(const std::uint16_t* q, const std::uint8_t* active,
                      std::size_t n, const float* zero, const float* scale,
                      float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i q16 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i));
    const __m128i q32 = _mm_cvtepu16_epi32(q16);
    const __m128 zv = _mm_loadu_ps(zero + i);
    const __m128 sv = _mm_loadu_ps(scale + i);
    __m128 half_out[2];
    for (int h = 0; h < 2; ++h) {
      const __m128i qh =
          h ? _mm_shuffle_epi32(q32, _MM_SHUFFLE(3, 2, 3, 2)) : q32;
      const __m128 zf = h ? _mm_movehl_ps(zv, zv) : zv;
      const __m128 sf = h ? _mm_movehl_ps(sv, sv) : sv;
      const __m128d qd = _mm_cvtepi32_pd(qh);
      const __m128d zd = _mm_cvtps_pd(zf);
      const __m128d sd = _mm_cvtps_pd(sf);
      const __m128d res = _mm_add_pd(zd, _mm_mul_pd(qd, sd));
      half_out[h] = _mm_cvtpd_ps(res);
    }
    const __m128 res = _mm_movelh_ps(half_out[0], half_out[1]);
    const __m128i av = _mm_cvtepu8_epi32(
        _mm_cvtsi32_si128(static_cast<int>(
            static_cast<std::uint32_t>(active[i]) |
            static_cast<std::uint32_t>(active[i + 1]) << 8 |
            static_cast<std::uint32_t>(active[i + 2]) << 16 |
            static_cast<std::uint32_t>(active[i + 3]) << 24)));
    const __m128 inactive =
        _mm_castsi128_ps(_mm_cmpeq_epi32(av, _mm_setzero_si128()));
    _mm_storeu_ps(out + i, _mm_andnot_ps(inactive, res));
  }
  DequantizeRowScalar(q + i, active + i, n - i, zero + i, scale + i, out + i);
}

void RigidTransformSse(const double rt[12], const double* in,
                       std::size_t in_stride, std::size_t n, double* out,
                       std::size_t out_stride) {
  const __m128d r00 = _mm_set1_pd(rt[0]), r01 = _mm_set1_pd(rt[1]),
                r02 = _mm_set1_pd(rt[2]), r10 = _mm_set1_pd(rt[3]),
                r11 = _mm_set1_pd(rt[4]), r12 = _mm_set1_pd(rt[5]),
                r20 = _mm_set1_pd(rt[6]), r21 = _mm_set1_pd(rt[7]),
                r22 = _mm_set1_pd(rt[8]), tx = _mm_set1_pd(rt[9]),
                ty = _mm_set1_pd(rt[10]), tz = _mm_set1_pd(rt[11]);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const double* p0 = in + i * in_stride;
    const double* p1 = p0 + in_stride;
    const __m128d x = _mm_set_pd(p1[0], p0[0]);
    const __m128d y = _mm_set_pd(p1[1], p0[1]);
    const __m128d z = _mm_set_pd(p1[2], p0[2]);
    const __m128d ox = _mm_add_pd(
        _mm_add_pd(_mm_add_pd(_mm_mul_pd(r00, x), _mm_mul_pd(r01, y)),
                   _mm_mul_pd(r02, z)),
        tx);
    const __m128d oy = _mm_add_pd(
        _mm_add_pd(_mm_add_pd(_mm_mul_pd(r10, x), _mm_mul_pd(r11, y)),
                   _mm_mul_pd(r12, z)),
        ty);
    const __m128d oz = _mm_add_pd(
        _mm_add_pd(_mm_add_pd(_mm_mul_pd(r20, x), _mm_mul_pd(r21, y)),
                   _mm_mul_pd(r22, z)),
        tz);
    alignas(16) double bx[2], by[2], bz[2];
    _mm_store_pd(bx, ox);
    _mm_store_pd(by, oy);
    _mm_store_pd(bz, oz);
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

// One pass over the points for kGroups groups of 2 yaws starting at `j`;
// same operand-order rule as the AVX2 tier: minpd(lx, acc) / maxpd(lx, acc)
// are std::min(acc, lx) / std::max(acc, lx) bit-for-bit.
template <int kGroups>
inline void RotatedBoundsPassSse(const double* cos_yaw, const double* sin_yaw,
                                 std::size_t j, std::size_t k,
                                 const double* xy, std::size_t stride,
                                 std::size_t n, double* bounds) {
  const __m128d sign = _mm_set1_pd(-0.0);
  const __m128d inf = _mm_set1_pd(std::numeric_limits<double>::infinity());
  const __m128d neg_inf = _mm_xor_pd(inf, sign);
  __m128d c[kGroups], s[kGroups], neg_s[kGroups];
  __m128d xmin[kGroups], xmax[kGroups], ymin[kGroups], ymax[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    c[g] = _mm_loadu_pd(cos_yaw + j + 2 * g);
    s[g] = _mm_loadu_pd(sin_yaw + j + 2 * g);
    neg_s[g] = _mm_xor_pd(s[g], sign);  // -s as a sign flip, not 0 - s
    xmin[g] = ymin[g] = inf;
    xmax[g] = ymax[g] = neg_inf;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const __m128d x = _mm_load1_pd(xy + i * stride);
    const __m128d y = _mm_load1_pd(xy + i * stride + 1);
    for (int g = 0; g < kGroups; ++g) {
      const __m128d lx = _mm_add_pd(_mm_mul_pd(c[g], x), _mm_mul_pd(s[g], y));
      const __m128d ly =
          _mm_add_pd(_mm_mul_pd(neg_s[g], x), _mm_mul_pd(c[g], y));
      xmin[g] = _mm_min_pd(lx, xmin[g]);
      xmax[g] = _mm_max_pd(lx, xmax[g]);
      ymin[g] = _mm_min_pd(ly, ymin[g]);
      ymax[g] = _mm_max_pd(ly, ymax[g]);
    }
  }
  for (int g = 0; g < kGroups; ++g) {
    const std::size_t col = j + 2 * static_cast<std::size_t>(g);
    _mm_storeu_pd(bounds + col, xmin[g]);
    _mm_storeu_pd(bounds + k + col, xmax[g]);
    _mm_storeu_pd(bounds + 2 * k + col, ymin[g]);
    _mm_storeu_pd(bounds + 3 * k + col, ymax[g]);
  }
}

void RotatedBoundsSse(const double* cos_yaw, const double* sin_yaw,
                      std::size_t k, const double* xy, std::size_t stride,
                      std::size_t n, double* bounds) {
  std::size_t j = 0;
  for (; j + 4 <= k; j += 4) {
    RotatedBoundsPassSse<2>(cos_yaw, sin_yaw, j, k, xy, stride, n, bounds);
  }
  if (j + 2 <= k) {
    RotatedBoundsPassSse<1>(cos_yaw, sin_yaw, j, k, xy, stride, n, bounds);
    j += 2;
  }
  RotatedBoundsYawTail(cos_yaw, sin_yaw, j, k, xy, stride, n, bounds);
}

}  // namespace

const Kernels kSse42Table = {
    Tier::kSse42,
    ReluSse,
    MaxIntoSse,
    RangeNonzeroFiniteSse,
    QuantizeRowSse,
    DequantizeRowSse,
    RigidTransformSse,
    detail::SumStridedScalar,  // order-pinned reduction: scalar in all tiers
    RotatedBoundsSse,
    detail::Crc32Slice8,
};

}  // namespace cooper::common::simd
