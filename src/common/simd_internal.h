// Internal glue for the common::simd tier translation units: the per-tier
// kernel tables handed to the dispatcher, the scalar reference loops (vector
// tiers call them for tails), and the shared slice-by-8 CRC tables.  Not
// part of the public API.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace cooper::common::simd {

// Tier tables.  Only the tables whose TU is compiled into the build exist;
// CMake defines COOPER_SIMD_HAVE_* accordingly (scalar is unconditional).
extern const Kernels kScalarTable;
#if defined(COOPER_SIMD_HAVE_SSE42)
extern const Kernels kSse42Table;
#endif
#if defined(COOPER_SIMD_HAVE_AVX2)
extern const Kernels kAvx2Table;
#endif
#if defined(COOPER_SIMD_HAVE_NEON)
extern const Kernels kNeonTable;
#endif

namespace detail {

// Scalar reference bodies — the semantic definition of every kernel.
// Vector tiers delegate their tails (n % lane_width) to these.
void ReluScalar(float* x, std::size_t n);
void MaxIntoScalar(float* dst, const float* src, std::size_t n);
void RangeNonzeroFiniteScalar(const float* row, std::size_t n, float* lo,
                              float* hi, std::uint8_t* any);
void QuantizeRowScalar(const float* row, std::size_t n, const float* zero,
                       const float* scale, double qmax, std::uint16_t* q,
                       std::uint8_t* active);
void DequantizeRowScalar(const std::uint16_t* q, const std::uint8_t* active,
                         std::size_t n, const float* zero, const float* scale,
                         float* out);
void RigidTransformScalar(const double rt[12], const double* in,
                          std::size_t in_stride, std::size_t n, double* out,
                          std::size_t out_stride);
double SumStridedScalar(const double* x, std::size_t stride, std::size_t n);
void RotatedBoundsScalar(const double* cos_yaw, const double* sin_yaw,
                         std::size_t k, const double* xy, std::size_t stride,
                         std::size_t n, double* bounds);

/// The scalar rotated-bounds loop over yaws [first, k) only, writing the
/// same four rows of k — vector tiers finish their yaw tails with it.
void RotatedBoundsYawTail(const double* cos_yaw, const double* sin_yaw,
                          std::size_t first, std::size_t k, const double* xy,
                          std::size_t stride, std::size_t n, double* bounds);
std::uint32_t Crc32Scalar(const std::uint8_t* data, std::size_t size);

/// Slice-by-8 CRC-32 over the shared tables; used by every vector tier
/// (the parallelism is across the eight table lookups, not SIMD lanes, so
/// one implementation serves SSE/AVX/NEON alike).
std::uint32_t Crc32Slice8(const std::uint8_t* data, std::size_t size);

/// The 8 x 256 CRC tables (table 0 is the classic byte-at-a-time table).
/// Built on first use, shared by Crc32Scalar and Crc32Slice8.
const std::uint32_t (*CrcTables())[256];

}  // namespace detail

}  // namespace cooper::common::simd
