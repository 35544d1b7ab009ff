// Bit-exactness tests for the common::simd kernel layer.
//
// Every vector tier must reproduce the scalar reference bit-for-bit on every
// input, including the awkward ones: tails of every length around the lane
// width, NaN/inf payloads, signed zeros, denormals.  The sweeps below run
// each kernel at n = 0..kMaxSweep (three times the widest lane count) for
// every compiled-in tier and compare raw bit patterns — a ULP tolerance
// would defeat the replay conformance contract these kernels back.
#include "common/simd.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace cooper::common::simd {
namespace {

// Three times the widest lane count in any tier (AVX2: 8 floats), rounded
// up so double-lane kernels (4/iter) also see >2 full vectors plus tails.
constexpr std::size_t kMaxSweep = 3 * 8 + 3;

std::vector<const Kernels*> CompiledTiers() {
  std::vector<const Kernels*> tiers;
  for (const Tier t : {Tier::kScalar, Tier::kSse42, Tier::kAvx2, Tier::kNeon}) {
    if (const Kernels* k = TierKernels(t)) tiers.push_back(k);
  }
  return tiers;
}

const Kernels& Scalar() { return *TierKernels(Tier::kScalar); }

// n == 0 short-circuits: data() of an empty vector may be null, and memcmp
// with a null pointer is UB even at size 0 (UBSan rejects it).
bool BitEqual(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool BitEqual(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool BytesEqual(const void* a, const void* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

// Deterministic payload mixing ordinary values with the special cases that
// break naive vectorizations: NaN, +/-inf, +/-0, denormals, huge magnitudes.
float SpecialFloat(std::mt19937& rng) {
  switch (rng() % 12) {
    case 0: return std::numeric_limits<float>::quiet_NaN();
    case 1: return std::numeric_limits<float>::infinity();
    case 2: return -std::numeric_limits<float>::infinity();
    case 3: return 0.0f;
    case 4: return -0.0f;
    case 5: return std::numeric_limits<float>::denorm_min();
    case 6: return -std::numeric_limits<float>::max();
    default: {
      std::uniform_real_distribution<float> d(-100.0f, 100.0f);
      return d(rng);
    }
  }
}

std::vector<float> SpecialRow(std::mt19937& rng, std::size_t n) {
  std::vector<float> row(n);
  for (float& v : row) v = SpecialFloat(rng);
  return row;
}

TEST(SimdDispatch, ScalarTierAlwaysCompiledIn) {
  ASSERT_NE(TierKernels(Tier::kScalar), nullptr);
  EXPECT_EQ(TierKernels(Tier::kScalar)->tier, Tier::kScalar);
  EXPECT_TRUE(TierAvailable(Tier::kScalar));
}

TEST(SimdDispatch, DetectedTierIsAvailableAndOrdered) {
  const Tier best = DetectedTier();
  EXPECT_TRUE(TierAvailable(best));
  // Every tier at or below the detected one (same architecture family) that
  // was compiled in must be usable.
  for (const Kernels* k : CompiledTiers()) {
    if (static_cast<int>(k->tier) <= static_cast<int>(best)) {
      EXPECT_TRUE(TierAvailable(k->tier)) << TierName(k->tier);
    }
  }
}

TEST(SimdDispatch, ParseModeAcceptsKnobValuesOnly) {
  EXPECT_EQ(ParseMode("auto"), Mode::kAuto);
  EXPECT_EQ(ParseMode("scalar"), Mode::kScalar);
  EXPECT_EQ(ParseMode("sse4.2"), Mode::kSse42);
  EXPECT_EQ(ParseMode("avx2"), Mode::kAvx2);
  EXPECT_EQ(ParseMode("neon"), Mode::kNeon);
  EXPECT_FALSE(ParseMode("").has_value());
  EXPECT_FALSE(ParseMode("AVX2").has_value());
  EXPECT_FALSE(ParseMode("sse42").has_value());
  EXPECT_FALSE(ParseMode("fastest").has_value());
}

TEST(SimdDispatch, SetModeForcesAndRestores) {
  SetMode(Mode::kScalar);
  EXPECT_EQ(ActiveTier(), Tier::kScalar);
  EXPECT_EQ(&Active(), TierKernels(Tier::kScalar));
  SetMode(Mode::kAuto);
  EXPECT_EQ(ActiveTier(), DetectedTier());
}

TEST(SimdDispatch, ForcingUnavailableTierClampsToDetected) {
#if defined(__aarch64__)
  const Mode foreign = Mode::kAvx2;  // x86 tier on an arm build
#else
  const Mode foreign = Mode::kNeon;  // arm tier on an x86 build
#endif
  SetMode(foreign);
  EXPECT_EQ(ActiveTier(), DetectedTier());
  SetMode(Mode::kAuto);
}

TEST(SimdDispatch, NamesRoundTrip) {
  EXPECT_STREQ(TierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(ModeName(Mode::kAuto), "auto");
  for (const Kernels* k : CompiledTiers()) {
    const auto mode = ParseMode(TierName(k->tier));
    ASSERT_TRUE(mode.has_value()) << TierName(k->tier);
    EXPECT_EQ(static_cast<int>(*mode), static_cast<int>(k->tier));
  }
  // The feature string is stamped into bench headers; it must be non-empty.
  EXPECT_FALSE(CpuFeatureString().empty());
}

TEST(SimdSweep, ReluMatchesScalarAtEveryTail) {
  std::mt19937 rng(0x5eed0003);
  for (const Kernels* k : CompiledTiers()) {
    for (std::size_t n = 0; n <= kMaxSweep; ++n) {
      std::vector<float> base = SpecialRow(rng, n + 1);
      std::vector<float> got = base, want = base;
      Scalar().relu(want.data(), n);
      k->relu(got.data(), n);
      EXPECT_TRUE(BitEqual(got.data(), want.data(), n + 1))
          << TierName(k->tier) << " relu n=" << n;
    }
  }
}

TEST(SimdSweep, MaxIntoMatchesScalarAtEveryTail) {
  std::mt19937 rng(0x5eed0004);
  for (const Kernels* k : CompiledTiers()) {
    for (std::size_t n = 0; n <= kMaxSweep; ++n) {
      const std::vector<float> src = SpecialRow(rng, n);
      std::vector<float> base = SpecialRow(rng, n + 1);
      std::vector<float> got = base, want = base;
      Scalar().max_into(want.data(), src.data(), n);
      k->max_into(got.data(), src.data(), n);
      EXPECT_TRUE(BitEqual(got.data(), want.data(), n + 1))
          << TierName(k->tier) << " max_into n=" << n;
    }
  }
}

TEST(SimdSweep, RangeNonzeroFiniteMatchesScalarAtEveryTail) {
  std::mt19937 rng(0x5eed0005);
  for (const Kernels* k : CompiledTiers()) {
    for (std::size_t n = 0; n <= kMaxSweep; ++n) {
      // Accumulate several rows so both the first-touch (any=0) and the
      // running-update paths get exercised per channel.
      std::vector<float> lo_w(n, 0.0f), hi_w(n, 0.0f);
      std::vector<float> lo_g(n, 0.0f), hi_g(n, 0.0f);
      std::vector<std::uint8_t> any_w(n, 0), any_g(n, 0);
      for (int row_i = 0; row_i < 4; ++row_i) {
        const std::vector<float> row = SpecialRow(rng, n);
        Scalar().range_nonzero_finite(row.data(), n, lo_w.data(), hi_w.data(),
                                      any_w.data());
        k->range_nonzero_finite(row.data(), n, lo_g.data(), hi_g.data(),
                                any_g.data());
      }
      EXPECT_TRUE(BitEqual(lo_g.data(), lo_w.data(), n))
          << TierName(k->tier) << " range lo n=" << n;
      EXPECT_TRUE(BitEqual(hi_g.data(), hi_w.data(), n))
          << TierName(k->tier) << " range hi n=" << n;
      EXPECT_TRUE(BytesEqual(any_g.data(), any_w.data(), n))
          << TierName(k->tier) << " range any n=" << n;
    }
  }
}

TEST(SimdSweep, QuantizeRowMatchesScalarAtEveryTail) {
  std::mt19937 rng(0x5eed0006);
  for (const Kernels* k : CompiledTiers()) {
    for (std::size_t n = 0; n <= kMaxSweep; ++n) {
      const std::vector<float> row = SpecialRow(rng, n);
      std::vector<float> zero(n), scale(n);
      std::uniform_real_distribution<float> zd(-50.0f, 50.0f);
      for (std::size_t c = 0; c < n; ++c) {
        zero[c] = zd(rng);
        // Mix zero scales (dead channel -> q=0) with tiny/ordinary ones,
        // including a scale that maps row values near the half-way point.
        switch (rng() % 4) {
          case 0: scale[c] = 0.0f; break;
          case 1: scale[c] = 1e-6f; break;
          case 2: scale[c] = 0.5f; break;
          default: scale[c] = zd(rng) * zd(rng) * 1e-3f + 1.0f; break;
        }
        if (scale[c] < 0) scale[c] = -scale[c];
      }
      for (const double qmax : {0.0, 255.0, 4095.0}) {
        std::vector<std::uint16_t> q_w(n, 9), q_g(n, 9);
        std::vector<std::uint8_t> a_w(n, 7), a_g(n, 7);
        Scalar().quantize_row(row.data(), n, zero.data(), scale.data(), qmax,
                              q_w.data(), a_w.data());
        k->quantize_row(row.data(), n, zero.data(), scale.data(), qmax,
                        q_g.data(), a_g.data());
        EXPECT_TRUE(BytesEqual(q_g.data(), q_w.data(), n * 2))
            << TierName(k->tier) << " quantize q n=" << n << " qmax=" << qmax;
        EXPECT_TRUE(BytesEqual(a_g.data(), a_w.data(), n))
            << TierName(k->tier) << " quantize active n=" << n;
      }
    }
  }
}

TEST(SimdSweep, DequantizeRowMatchesScalarAtEveryTail) {
  std::mt19937 rng(0x5eed0007);
  for (const Kernels* k : CompiledTiers()) {
    for (std::size_t n = 0; n <= kMaxSweep; ++n) {
      std::vector<std::uint16_t> q(n);
      std::vector<std::uint8_t> active(n);
      std::vector<float> zero(n), scale(n);
      std::uniform_real_distribution<float> zd(-50.0f, 50.0f);
      for (std::size_t c = 0; c < n; ++c) {
        q[c] = static_cast<std::uint16_t>(rng());
        active[c] = static_cast<std::uint8_t>(rng() % 2);
        zero[c] = zd(rng);
        scale[c] = std::abs(zd(rng)) * 1e-2f;
      }
      std::vector<float> out_w(n + 1, 5.0f), out_g(n + 1, 5.0f);
      Scalar().dequantize_row(q.data(), active.data(), n, zero.data(),
                              scale.data(), out_w.data());
      k->dequantize_row(q.data(), active.data(), n, zero.data(), scale.data(),
                        out_g.data());
      EXPECT_TRUE(BitEqual(out_g.data(), out_w.data(), n + 1))
          << TierName(k->tier) << " dequantize n=" << n;
    }
  }
}

TEST(SimdSweep, RigidTransformMatchesScalarAtEveryTail) {
  std::mt19937 rng(0x5eed0008);
  std::uniform_real_distribution<double> d(-10.0, 10.0);
  for (const Kernels* k : CompiledTiers()) {
    for (std::size_t n = 0; n <= kMaxSweep; ++n) {
      double rt[12];
      for (double& v : rt) v = d(rng);
      for (const std::size_t stride : {std::size_t{3}, std::size_t{4}}) {
        std::vector<double> in(n * stride + 1);
        for (double& v : in) v = d(rng);
        in.back() = 1e9;  // canary past the last point
        std::vector<double> want = in, got = in;
        Scalar().rigid_transform(rt, want.data(), stride, n, want.data(),
                                 stride);
        k->rigid_transform(rt, got.data(), stride, n, got.data(), stride);
        EXPECT_TRUE(BitEqual(got.data(), want.data(), in.size()))
            << TierName(k->tier) << " rigid in-place n=" << n
            << " stride=" << stride;

        // Strided gather into a packed xyz output (the ICP sampling shape).
        std::vector<double> out_w(n * 3 + 1, -7.0), out_g(n * 3 + 1, -7.0);
        Scalar().rigid_transform(rt, in.data(), stride, n, out_w.data(), 3);
        k->rigid_transform(rt, in.data(), stride, n, out_g.data(), 3);
        EXPECT_TRUE(BitEqual(out_g.data(), out_w.data(), out_w.size()))
            << TierName(k->tier) << " rigid packed n=" << n
            << " stride=" << stride;
      }
    }
  }
}

TEST(SimdSweep, SumStridedMatchesScalarAtEveryTail) {
  std::mt19937 rng(0x5eed0009);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (const Kernels* k : CompiledTiers()) {
    for (std::size_t n = 0; n <= kMaxSweep; ++n) {
      const std::size_t stride = 5;
      std::vector<double> x(n * stride + 1);
      for (double& v : x) v = d(rng);
      const double want = Scalar().sum_strided(x.data(), stride, n);
      const double got = k->sum_strided(x.data(), stride, n);
      EXPECT_EQ(std::memcmp(&got, &want, 8), 0)
          << TierName(k->tier) << " sum_strided n=" << n;
    }
  }
}

// Coordinates for the rotated-bounds sweep: ordinary values, a few repeated
// values (equal projections, so ties between accumulator and candidate),
// signed zeros, infinities and NaN (inf * 0 also makes NaN projections).
double SpecialCoord(std::mt19937& rng) {
  switch (rng() % 12) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return 0.0;
    case 4: return -0.0;
    case 5: return 1.5;
    case 6: return -2.25;
    default: {
      std::uniform_real_distribution<double> d(-30.0, 30.0);
      return d(rng);
    }
  }
}

TEST(SimdSweep, RotatedBoundsMatchesScalarAtEveryTail) {
  std::mt19937 rng(0x5eed000b);
  constexpr std::size_t kMaxYaws = 48;
  // The box fit's yaw table, then yaws with exact zeros and negative
  // sines, so -s flips the sign of both zeros and ordinary values.
  std::vector<double> cos_yaw(kMaxYaws), sin_yaw(kMaxYaws);
  for (std::size_t j = 0; j < kMaxYaws; ++j) {
    const double yaw = (j < 45 ? 2.0 * static_cast<double>(j)
                               : -37.0 * static_cast<double>(j)) *
                       (3.141592653589793 / 180.0);
    cos_yaw[j] = std::cos(yaw);
    sin_yaw[j] = std::sin(yaw);
  }
  sin_yaw[1] = -0.0;
  cos_yaw[2] = 0.0;
  for (const Kernels* k : CompiledTiers()) {
    for (std::size_t n = 0; n <= kMaxSweep; ++n) {
      for (const std::size_t stride : {std::size_t{2}, std::size_t{4}}) {
        std::vector<double> xy(n * stride);
        for (double& v : xy) v = SpecialCoord(rng);
        // Duplicate a point now and then: every projection of the copy ties.
        if (n >= 2 && rng() % 2 == 0) {
          xy[(n - 1) * stride] = xy[0];
          xy[(n - 1) * stride + 1] = xy[1];
        }
        for (std::size_t yaws = 1; yaws <= kMaxYaws; ++yaws) {
          std::vector<double> want(4 * yaws + 1, 7.0), got = want;
          const double* pts = n == 0 ? nullptr : xy.data();
          Scalar().rotated_bounds(cos_yaw.data(), sin_yaw.data(), yaws, pts,
                                  stride, n, want.data());
          k->rotated_bounds(cos_yaw.data(), sin_yaw.data(), yaws, pts, stride,
                            n, got.data());
          ASSERT_TRUE(BitEqual(got.data(), want.data(), 4 * yaws + 1))
              << TierName(k->tier) << " rotated_bounds n=" << n
              << " k=" << yaws << " stride=" << stride;
        }
      }
    }
  }
}

TEST(SimdSweep, RotatedBoundsKeepsTheAccumulatorOnTies) {
  // The loop the kernel replaced is std::min(acc, lx) / std::max(acc, lx):
  // a tie keeps the earlier value, so -0 then +0 leaves -0 in both the min
  // and the max, and NaN projections never enter the bounds.  Four copies
  // of yaw 0 so every tier runs a vector pass, not just its scalar tail.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // (x, y); at yaw 0, lx = x + 0*y and ly = (-0)*x + y.
  const double xy[] = {1.0, -0.0,  // lx 1,   ly -0
                       2.0, 0.0,   // lx 2,   ly +0
                       nan, 5.0,   // lx NaN, ly NaN
                       inf, 0.0,   // lx inf, ly NaN (-0 * inf)
                       -3.0, -0.0};  // lx -3, ly +0
  const double cos_yaw[] = {1.0, 1.0, 1.0, 1.0};
  const double sin_yaw[] = {0.0, 0.0, 0.0, 0.0};
  for (const Kernels* k : CompiledTiers()) {
    double b[16];
    k->rotated_bounds(cos_yaw, sin_yaw, 4, xy, 2, 5, b);
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(b[j], -3.0) << TierName(k->tier);
      EXPECT_EQ(b[4 + j], inf) << TierName(k->tier);
      EXPECT_EQ(b[8 + j], 0.0) << TierName(k->tier);
      EXPECT_TRUE(std::signbit(b[8 + j])) << TierName(k->tier) << " ymin";
      EXPECT_EQ(b[12 + j], 0.0) << TierName(k->tier);
      EXPECT_TRUE(std::signbit(b[12 + j])) << TierName(k->tier) << " ymax";
    }
  }
}

TEST(SimdSweep, Crc32MatchesScalarAtEveryTail) {
  std::mt19937 rng(0x5eed000a);
  for (const Kernels* k : CompiledTiers()) {
    // Sweep lengths across the slice-by-8 block boundary and well past it.
    for (std::size_t n = 0; n <= 3 * 8 + 3; ++n) {
      std::vector<std::uint8_t> data(n);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng());
      EXPECT_EQ(k->crc32(data.data(), n), Scalar().crc32(data.data(), n))
          << TierName(k->tier) << " crc32 n=" << n;
    }
    std::vector<std::uint8_t> big(4096);
    for (auto& b : big) b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(k->crc32(big.data(), big.size()),
              Scalar().crc32(big.data(), big.size()))
        << TierName(k->tier) << " crc32 big";
  }
}

TEST(SimdSweep, Crc32KnownVector) {
  // CRC-32/IEEE of "123456789" is 0xcbf43926 — pins the polynomial and
  // reflection conventions across every tier.
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (const Kernels* k : CompiledTiers()) {
    EXPECT_EQ(k->crc32(check, sizeof check), 0xcbf43926u) << TierName(k->tier);
  }
}

}  // namespace
}  // namespace cooper::common::simd
