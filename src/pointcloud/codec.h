// Quantising point-cloud codec.
//
// The paper argues (§II-C, §IV-G) that clouds "can be compressed into 200 KB
// per scan" by keeping only positional coordinates and reflectance.  This
// codec realises that: positions are quantised to a configurable resolution
// (1 cm default — below GPS noise, so lossless for fusion purposes),
// delta-encoded in scan order and varint-packed; reflectance is one byte.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "pointcloud/point_cloud.h"

namespace cooper::pc {

struct CodecConfig {
  double resolution = 0.01;  // metres per quantisation step
  bool delta_encode = true;  // delta+varint (vs. raw fixed32 per axis)
};

class CloudCodec {
 public:
  explicit CloudCodec(const CodecConfig& config = {}) : config_(config) {}

  /// Encodes to a self-describing byte buffer.
  std::vector<std::uint8_t> Encode(const PointCloud& cloud) const;

  /// Decodes a buffer produced by Encode (any config). Fails with DATA_LOSS
  /// on truncation or bad magic.
  static Result<PointCloud> Decode(const std::vector<std::uint8_t>& bytes);

  const CodecConfig& config() const { return config_; }

 private:
  CodecConfig config_;
};

}  // namespace cooper::pc
