#include "feat/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cooper::feat {
namespace {

constexpr std::uint32_t kMagic = 0x314d4643;  // "CFM1" (le bytes C F M 1)
constexpr std::uint8_t kFlag16Bit = 0x01;
// Sanity caps: a legitimate map is a detector-grid tap (hundreds of cells per
// axis, a handful of channels).  Claims beyond these bounds are corrupt and
// must not drive huge allocations.
constexpr std::int32_t kMaxShape = 1 << 20;
constexpr std::size_t kMaxChannels = 1024;

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void PutF32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  PutU32(out, bits);
}

void PutF64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void PutVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  bool GetU8(std::uint8_t* v) {
    if (pos_ >= bytes_.size()) return false;
    *v = bytes_[pos_++];
    return true;
  }
  bool GetU16(std::uint16_t* v) {
    if (pos_ + 2 > bytes_.size()) return false;
    *v = static_cast<std::uint16_t>(bytes_[pos_] |
                                    (static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8));
    pos_ += 2;
    return true;
  }
  bool GetU32(std::uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    return true;
  }
  bool GetF32(float* v) {
    std::uint32_t bits = 0;
    if (!GetU32(&bits)) return false;
    std::memcpy(v, &bits, 4);
    return true;
  }
  bool GetF64(double* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    std::memcpy(v, &bits, 8);
    return true;
  }
  bool GetVarint(std::uint64_t* v) {
    *v = 0;
    int shift = 0;
    while (pos_ < bytes_.size()) {
      const std::uint8_t b = bytes_[pos_++];
      // The tenth byte sits at shift 63: only its lowest payload bit fits in
      // a 64-bit value; a silently truncated byte is a decode error.
      if (shift == 63 && (b & 0x7e) != 0) return false;
      *v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return true;
      shift += 7;
      if (shift > 63) return false;
    }
    return false;
  }
  std::size_t pos() const { return pos_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

// Encode-time site order: (z, y, x) lexicographic, so consecutive sites are
// spatial neighbours and the coordinate deltas stay in the 1-byte varint
// range.  Coordinates are unique per site, so the order is total and the
// encoded bytes are a deterministic function of the map's content.
std::vector<std::uint32_t> SortedSiteOrder(const nn::SparseTensor& t) {
  std::vector<std::uint32_t> order(t.coords.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const pc::VoxelCoord& ca = t.coords[a];
    const pc::VoxelCoord& cb = t.coords[b];
    if (ca.z != cb.z) return ca.z < cb.z;
    if (ca.y != cb.y) return ca.y < cb.y;
    return ca.x < cb.x;
  });
  return order;
}

}  // namespace

std::vector<std::uint8_t> FeatureCodec::Encode(const FeatureMap& map) const {
  obs::Span span("feat.encode", "feat");
  const nn::SparseTensor& t = map.tensor;
  const std::size_t n = t.num_active();
  const std::size_t channels = t.channels();
  const bool wide = config_.bits == 16;
  const double qmax = wide ? 65535.0 : 255.0;

  // Per-channel quantization range over the *nonzero* values: zero_point is
  // the channel minimum, so q = 0 decodes back to it exactly and zeros never
  // collide with small nonzero values.  The scan is site-outer so each step
  // sweeps one contiguous feature row through the vectorized range kernel;
  // min/max per channel still accumulate in ascending site order, matching
  // the historical channel-outer scan bit-for-bit.
  std::vector<float> zero(channels, 0.0f);
  std::vector<float> scale(channels, 0.0f);
  const common::simd::Kernels& kr = common::simd::Active();
  if (channels > 0) {
    std::vector<float> lo(channels, 0.0f);
    std::vector<float> hi(channels, 0.0f);
    std::vector<std::uint8_t> any(channels, 0);
    for (std::size_t i = 0; i < n; ++i) {
      kr.range_nonzero_finite(t.features.data() + i * channels, channels, lo.data(),
                              hi.data(), any.data());
    }
    for (std::size_t c = 0; c < channels; ++c) {
      zero[c] = lo[c];  // stays 0 for all-zero channels, as before
      scale[c] =
          static_cast<float>((static_cast<double>(hi[c]) - lo[c]) / qmax);
    }
  }

  std::vector<std::uint8_t> out;
  const std::size_t mask_bytes = (channels + 7) / 8;
  out.reserve(64 + channels * 8 + n * (4 + mask_bytes + channels * (wide ? 2 : 1)));
  PutU32(out, kMagic);
  out.push_back(wide ? kFlag16Bit : 0);
  PutU32(out, static_cast<std::uint32_t>(n));
  PutU16(out, static_cast<std::uint16_t>(channels));
  PutU32(out, static_cast<std::uint32_t>(t.spatial_shape.x));
  PutU32(out, static_cast<std::uint32_t>(t.spatial_shape.y));
  PutU32(out, static_cast<std::uint32_t>(t.spatial_shape.z));
  PutF64(out, map.origin.x);
  PutF64(out, map.origin.y);
  PutF64(out, map.origin.z);
  PutF64(out, map.voxel_size.x);
  PutF64(out, map.voxel_size.y);
  PutF64(out, map.voxel_size.z);
  for (std::size_t c = 0; c < channels; ++c) {
    PutF32(out, zero[c]);
    PutF32(out, scale[c]);
  }

  const std::vector<std::uint32_t> order = SortedSiteOrder(t);
  std::vector<std::uint16_t> qrow(channels);
  std::vector<std::uint8_t> arow(channels);
  std::int64_t prev[3] = {0, 0, 0};
  for (const std::uint32_t row : order) {
    const pc::VoxelCoord& c = t.coords[row];
    const std::int64_t q[3] = {c.x, c.y, c.z};
    for (int a = 0; a < 3; ++a) {
      PutVarint(out, ZigZag(q[a] - prev[a]));
      prev[a] = q[a];
    }
    const std::size_t mask_at = out.size();
    out.insert(out.end(), mask_bytes, 0);
    if (channels == 0) continue;
    // Vectorized per-channel quantization of the contiguous feature row;
    // on the zero/scale values computed above it matches the historical
    // per-element llround-then-clamp bit-for-bit (see simd.h), so the wire
    // bytes — and the committed golden traces — are unchanged.
    kr.quantize_row(t.features.data() + row * channels, channels, zero.data(),
                    scale.data(), qmax, qrow.data(), arow.data());
    for (std::size_t ch = 0; ch < channels; ++ch) {
      if (!arow[ch]) continue;
      out[mask_at + ch / 8] |= static_cast<std::uint8_t>(1u << (ch % 8));
      out.push_back(static_cast<std::uint8_t>(qrow[ch]));
      if (wide) out.push_back(static_cast<std::uint8_t>(qrow[ch] >> 8));
    }
  }
  COOPER_COUNT_N("feat.sites_encoded", n);
  COOPER_COUNT_N("feat.bytes_encoded", out.size());
  return out;
}

Result<FeatureMap> FeatureCodec::Decode(const std::vector<std::uint8_t>& bytes) {
  obs::Span span("feat.decode", "feat");
  Reader r(bytes);
  std::uint32_t magic = 0, count = 0;
  std::uint8_t flags = 0;
  std::uint16_t channels16 = 0;
  if (!r.GetU32(&magic) || magic != kMagic) {
    return DataLossError("bad feature-map magic");
  }
  if (!r.GetU8(&flags) || !r.GetU32(&count) || !r.GetU16(&channels16)) {
    return DataLossError("truncated feature-map header");
  }
  if ((flags & ~kFlag16Bit) != 0) {
    return DataLossError("unknown feature-map flags");
  }
  const bool wide = flags & kFlag16Bit;
  const std::size_t channels = channels16;
  if (channels == 0 || channels > kMaxChannels) {
    return DataLossError("implausible feature channel count");
  }
  FeatureMap map;
  std::uint32_t shape[3] = {0, 0, 0};
  if (!r.GetU32(&shape[0]) || !r.GetU32(&shape[1]) || !r.GetU32(&shape[2])) {
    return DataLossError("truncated feature-map shape");
  }
  for (const std::uint32_t s : shape) {
    const std::int32_t dim = static_cast<std::int32_t>(s);
    if (dim <= 0 || dim > kMaxShape) {
      return DataLossError("implausible feature-map shape");
    }
  }
  map.tensor.spatial_shape = {static_cast<std::int32_t>(shape[0]),
                              static_cast<std::int32_t>(shape[1]),
                              static_cast<std::int32_t>(shape[2])};
  if (!r.GetF64(&map.origin.x) || !r.GetF64(&map.origin.y) ||
      !r.GetF64(&map.origin.z) || !r.GetF64(&map.voxel_size.x) ||
      !r.GetF64(&map.voxel_size.y) || !r.GetF64(&map.voxel_size.z)) {
    return DataLossError("truncated feature-map geometry");
  }
  if (!std::isfinite(map.origin.x) || !std::isfinite(map.origin.y) ||
      !std::isfinite(map.origin.z) || !std::isfinite(map.voxel_size.x) ||
      !std::isfinite(map.voxel_size.y) || !std::isfinite(map.voxel_size.z) ||
      map.voxel_size.x <= 0.0 || map.voxel_size.y <= 0.0 ||
      map.voxel_size.z <= 0.0) {
    return DataLossError("invalid feature-map geometry");
  }
  std::vector<float> zero(channels, 0.0f);
  std::vector<float> scale(channels, 0.0f);
  for (std::size_t c = 0; c < channels; ++c) {
    if (!r.GetF32(&zero[c]) || !r.GetF32(&scale[c])) {
      return DataLossError("truncated quantization header");
    }
    if (!std::isfinite(zero[c]) || !std::isfinite(scale[c]) || scale[c] < 0.0f) {
      return DataLossError("corrupt quantization header");
    }
  }
  // Each site consumes at least 3 coordinate varints plus one mask byte; a
  // count claiming more sites than the remaining bytes can hold is corrupt
  // and must not drive a huge allocation.
  const std::size_t mask_bytes = (channels + 7) / 8;
  const std::size_t remaining = bytes.size() - r.pos();
  if (static_cast<std::size_t>(count) > remaining / (3 + mask_bytes)) {
    return DataLossError("site count exceeds payload size");
  }
  map.tensor.coords.reserve(count);
  map.tensor.features = nn::Tensor({static_cast<std::size_t>(count), channels});

  std::int64_t prev[3] = {0, 0, 0};
  const std::int64_t limit[3] = {map.tensor.spatial_shape.x,
                                 map.tensor.spatial_shape.y,
                                 map.tensor.spatial_shape.z};
  std::vector<std::uint8_t> mask(mask_bytes);
  std::vector<std::uint16_t> qrow(channels);
  std::vector<std::uint8_t> arow(channels);
  const common::simd::Kernels& kr = common::simd::Active();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::int64_t q[3];
    for (int a = 0; a < 3; ++a) {
      std::uint64_t raw = 0;
      if (!r.GetVarint(&raw)) return DataLossError("truncated site coordinates");
      q[a] = prev[a] + UnZigZag(raw);
      if (q[a] < 0 || q[a] >= limit[a]) {
        return DataLossError("site coordinate outside the grid shape");
      }
      prev[a] = q[a];
    }
    map.tensor.coords.push_back(pc::VoxelCoord{static_cast<std::int32_t>(q[0]),
                                               static_cast<std::int32_t>(q[1]),
                                               static_cast<std::int32_t>(q[2])});
    for (std::size_t b = 0; b < mask_bytes; ++b) {
      if (!r.GetU8(&mask[b])) return DataLossError("truncated channel mask");
    }
    // Gather the masked quant values into a dense row, then run the
    // vectorized dequant sweep over the contiguous feature row.
    for (std::size_t ch = 0; ch < channels; ++ch) {
      const bool on = (mask[ch / 8] & (1u << (ch % 8))) != 0;
      arow[ch] = on ? 1 : 0;  // off => exact zero
      std::uint16_t quant = 0;
      if (on) {
        if (wide) {
          if (!r.GetU16(&quant)) return DataLossError("truncated feature values");
        } else {
          std::uint8_t narrow = 0;
          if (!r.GetU8(&narrow)) return DataLossError("truncated feature values");
          quant = narrow;
        }
      }
      qrow[ch] = quant;
    }
    kr.dequantize_row(qrow.data(), arow.data(), channels, zero.data(),
                      scale.data(), map.tensor.features.data() + i * channels);
  }
  if (r.pos() != bytes.size()) {
    return DataLossError("trailing bytes after feature map");
  }
  COOPER_COUNT_N("feat.sites_decoded", map.tensor.num_active());
  COOPER_COUNT_N("feat.bytes_decoded", bytes.size());
  return map;
}

}  // namespace cooper::feat
