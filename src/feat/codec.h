// Quantizing sparse feature-map codec — the wire form of `FeatureMap`.
//
// Layout (little-endian):
//   u32 magic 'CFM1'   u8 flags (bit0: 16-bit values, else 8-bit)
//   u32 num_active     u16 channels
//   i32 shape[3]       f64 origin[3]   f64 voxel_size[3]
//   per channel: f32 zero_point, f32 scale      (linear dequantization
//                                                v = zero_point + q * scale)
//   per site, sorted by (z, y, x):
//     zigzag-varint coordinate deltas (dx, dy, dz vs the previous site)
//     ceil(C/8) mask bytes — bit c set iff channel c is nonzero
//     one u8/u16 quantized value per set mask bit
//
// Exactly-zero channels (the common case after the VFE's ReLU) cost one mask
// bit instead of a value; nonzero values are linearly quantized per channel
// against the range of that channel's nonzero values, so `zero_point` is the
// channel minimum and q = 0 decodes to it exactly — a decoded map re-encodes
// to the same quantization levels (round-trip stable; asserted at both bit
// depths on the committed golden scenes).
//
// Decoding is defensive: truncation, bad magic, lying counts, out-of-shape
// coordinates and corrupt quantization headers (non-finite or negative
// scale) are all recoverable DATA_LOSS errors, never crashes or over-reads —
// feature payloads arrive over the same lossy radio channel as clouds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "feat/feature_map.h"

namespace cooper::feat {

struct FeatureCodecConfig {
  int bits = 8;  // quantization width per nonzero value: 8 or 16
};

class FeatureCodec {
 public:
  explicit FeatureCodec(const FeatureCodecConfig& config = {})
      : config_{config.bits == 16 ? 16 : 8} {}

  /// Encodes to a self-describing byte buffer.  Features must be finite.
  std::vector<std::uint8_t> Encode(const FeatureMap& map) const;

  /// Decodes a buffer produced by Encode (either bit depth).  Fails with
  /// DATA_LOSS on truncation, corruption or implausible headers.
  static Result<FeatureMap> Decode(const std::vector<std::uint8_t>& bytes);

  const FeatureCodecConfig& config() const { return config_; }

 private:
  FeatureCodecConfig config_;
};

}  // namespace cooper::feat
