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

TEST(SimdSweep, SaxpyMatchesScalarAtEveryTail) {
  // Special values go into x and y in separate sweeps, never both: when y
  // and a*x are BOTH NaN, the add's result payload depends on operand
  // order, which the compiler may commute (addition is commutative except
  // for NaN payloads, which C++ leaves unspecified) — so that one case is
  // outside the bit-exactness contract (see the saxpy doc in simd.h).  A
  // single NaN/inf on either side still propagates deterministically.
  std::mt19937 rng(0x5eed0002);
  for (const Kernels* k : CompiledTiers()) {
    for (std::size_t n = 0; n <= kMaxSweep; ++n) {
      const std::vector<float> x_special = SpecialRow(rng, n);
      const std::vector<float> y_special = SpecialRow(rng, n + 1);
      std::vector<float> finite(n + 1);
      for (float& v : finite) {
        std::uniform_real_distribution<float> d(-100.0f, 100.0f);
        v = rng() % 8 == 0 ? -0.0f : d(rng);
      }
      for (const float a : {0.5f, -3.0f, 0.0f}) {
        {
          std::vector<float> got = finite, want = finite;
          got[n] = want[n] = 42.0f;  // overrun canary
          Scalar().saxpy(want.data(), x_special.data(), a, n);
          k->saxpy(got.data(), x_special.data(), a, n);
          EXPECT_TRUE(BitEqual(got.data(), want.data(), n + 1))
              << TierName(k->tier) << " saxpy special-x n=" << n << " a=" << a;
        }
        {
          std::vector<float> got = y_special, want = y_special;
          got[n] = want[n] = 42.0f;
          Scalar().saxpy(want.data(), finite.data(), a, n);
          k->saxpy(got.data(), finite.data(), a, n);
          EXPECT_TRUE(BitEqual(got.data(), want.data(), n + 1))
              << TierName(k->tier) << " saxpy special-y n=" << n << " a=" << a;
        }
      }
    }
  }
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
