// common::simd — runtime-dispatch data-parallel kernel layer for the hot
// loops (feature-codec quantize/dequantize, feature-map align/max-pool, ICP
// rigid transforms, the oriented-box yaw search, frame CRC-32).
//
// Design rules (DESIGN.md §11):
//  * One scalar reference implementation per kernel defines the semantics.
//    Every vector tier must produce bit-identical results for every input
//    the scalar tier accepts — the replay conformance matrix runs forced
//    scalar vs auto dispatch against the committed golden traces, so a
//    single differing bit is a test failure, not a tolerance.
//  * Vectorization happens across *independent output elements* only.
//    Order-pinned reductions (e.g. the ICP error sum) keep the scalar loop
//    in every tier; they live here so the dispatch tests still cover them.
//  * No FMA, no reassociation: kernel translation units are compiled with
//    -ffp-contract=off, and the intrinsic bodies use explicit mul-then-add.
//  * Feature detection runs once (first use); `SetMode` forces a tier for
//    tests and for the `CooperConfig::simd` knob ("auto" | "scalar" |
//    "sse4.2" | "avx2" | "neon").  Forcing an unavailable tier clamps to
//    the best available one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace cooper::common::simd {

/// Dispatch tiers, best-last.  A CPU that supports a tier supports every
/// lower one (on its architecture).
enum class Tier : int {
  kScalar = 0,
  kSse42 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Forced-mode knob values: auto picks the best detected tier.
enum class Mode : int {
  kAuto = -1,
  kScalar = 0,
  kSse42 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// One tier's kernel table.  All pointers are non-null in a published table.
struct Kernels {
  Tier tier;

  /// x[i] = (x[i] < 0) ? 0 : x[i] — preserves NaN and -0.0 exactly like
  /// `std::max(x[i], 0.0f)`.
  void (*relu)(float* x, std::size_t n);

  /// dst[i] = (dst[i] < src[i]) ? src[i] : dst[i] — the align/max-pool
  /// channel sweep.  Matches `std::max(dst, src)` bit-for-bit including
  /// NaN (keeps dst) and +/-0 (keeps dst).
  void (*max_into)(float* dst, const float* src, std::size_t n);

  /// Per-channel running range update over one feature row: for each lane c
  /// with row[c] nonzero and finite,
  ///   if (!any[c] || row[c] < lo[c]) lo[c] = row[c];
  ///   if (!any[c] || row[c] > hi[c]) hi[c] = row[c];
  ///   any[c] = 1;
  /// Zeros (either sign), NaN and +/-inf... NaN and infinities are skipped;
  /// the feature-codec encode range scan.
  void (*range_nonzero_finite)(const float* row, std::size_t n, float* lo,
                               float* hi, std::uint8_t* any);

  /// Per-channel affine quantization of one feature row:
  ///   active[c] = row[c] != 0 && isfinite(row[c]);
  ///   q[c] = active[c] && scale[c] > 0
  ///            ? round_half_away(clamp((row[c] - zero[c]) / scale[c],
  ///                                    0, qmax))    (double arithmetic)
  ///            : 0;
  /// Requires finite zero[]/scale[] and qmax >= 0 (the codec validates
  /// both); equals the historical llround-then-clamp on that domain.
  void (*quantize_row)(const float* row, std::size_t n, const float* zero,
                       const float* scale, double qmax, std::uint16_t* q,
                       std::uint8_t* active);

  /// Inverse sweep: out[c] = active[c]
  ///   ? float(double(zero[c]) + double(q[c]) * double(scale[c])) : 0.0f.
  void (*dequantize_row)(const std::uint16_t* q, const std::uint8_t* active,
                         std::size_t n, const float* zero, const float* scale,
                         float* out);

  /// Rigid transform of n xyz points: rt is {r00,r01,r02, r10,..., r22,
  /// tx,ty,tz} (row-major rotation then translation); strides are in
  /// doubles between consecutive points.  Per component the evaluation is
  ///   ((r?0*x + r?1*y) + r?2*z) + t?
  /// exactly — the `Pose::operator*` order.  in == out with equal strides
  /// is allowed (in-place); otherwise the ranges must not overlap.
  void (*rigid_transform)(const double rt[12], const double* in,
                          std::size_t in_stride, std::size_t n, double* out,
                          std::size_t out_stride);

  /// sum of x[i * stride] for i in [0, n), accumulated in index order.
  /// Order-pinned reduction: every tier runs the scalar loop (vectorizing
  /// would reassociate the sum), kept in the table so dispatch tests and
  /// the forced-scalar conformance cells still exercise the call path.
  double (*sum_strided)(const double* x, std::size_t stride, std::size_t n);

  /// Per-yaw rotated bounds of n xy points — the oriented-box fit's yaw
  /// search.  For each yaw j in [0, k), with c = cos_yaw[j], s = sin_yaw[j]
  /// and -s the sign-flipped s, over the points in index order
  ///   lx = c*x + s*y;   ly = (-s)*x + c*y;
  ///   xmin = std::min(xmin, lx);  xmax = std::max(xmax, lx);
  ///   ymin = std::min(ymin, ly);  ymax = std::max(ymax, ly);
  /// from xmin = ymin = +inf and xmax = ymax = -inf.  Point i's x and y are
  /// xy[i * stride] and xy[i * stride + 1].  `bounds` receives four rows of
  /// k: xmin[0..k), xmax[0..k), ymin[0..k), ymax[0..k).  Vector tiers run
  /// several yaws per pass (independent outputs); each yaw's reduction keeps
  /// the scalar order and std::min/std::max's keep-the-accumulator choice on
  /// ties, +/-0 and NaN, so every input is bit-exact across tiers.
  void (*rotated_bounds)(const double* cos_yaw, const double* sin_yaw,
                         std::size_t k, const double* xy, std::size_t stride,
                         std::size_t n, double* bounds);

  /// CRC-32 (IEEE 802.3, reflected 0xedb88320).  Scalar tier: table-driven
  /// byte-at-a-time.  Vector tiers: slice-by-8 (same polynomial, identical
  /// result — data-level parallelism across the 8 table lookups).
  std::uint32_t (*crc32)(const std::uint8_t* data, std::size_t size);
};

/// Best tier this CPU supports (detected once, cached).
Tier DetectedTier();

/// Whether `tier`'s kernel table was compiled in and the CPU supports it.
bool TierAvailable(Tier tier);

/// Tier table for `tier`, or nullptr when unavailable — lets tests compare
/// every compiled-in tier against the scalar reference directly.
const Kernels* TierKernels(Tier tier);

/// The active table.  Kernel-hot call sites should load this once per
/// outer call (`const Kernels& k = Active();`) rather than per element.
const Kernels& Active();

/// Active tier (== Active().tier).
Tier ActiveTier();

/// Forces the dispatch: kAuto restores the detected tier; forcing a tier
/// that is unavailable on this CPU clamps down to the best available one
/// (logged).  Thread-safe; takes effect for subsequent Active() loads.
void SetMode(Mode mode);

/// Parses a `CooperConfig::simd` knob value ("auto", "scalar", "sse4.2",
/// "avx2", "neon"); nullopt on anything else.
std::optional<Mode> ParseMode(const std::string& text);

const char* TierName(Tier tier);
const char* ModeName(Mode mode);

/// Comma-separated detected CPU feature list (e.g. "sse4.2,avx2"), stamped
/// into the BENCH_*.json headers.  "none" when only scalar is available.
std::string CpuFeatureString();

}  // namespace cooper::common::simd
