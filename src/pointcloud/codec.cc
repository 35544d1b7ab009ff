#include "pointcloud/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cooper::pc {
namespace {

constexpr std::uint32_t kMagic = 0x43504331;  // "CPC1"
constexpr std::uint8_t kFlagDelta = 0x01;

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
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

  bool GetU32(std::uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    return true;
  }
  bool GetU8(std::uint8_t* v) {
    if (pos_ >= bytes_.size()) return false;
    *v = bytes_[pos_++];
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
      // a 64-bit value.  Anything above would be shifted out silently, so a
      // would-be-truncated byte is a decode error, not a wrap-around.
      if (shift == 63 && (b & 0x7e) != 0) return false;
      *v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return true;
      shift += 7;
      if (shift > 63) return false;
    }
    return false;
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

std::int64_t Quantize(double v, double origin, double resolution) {
  return static_cast<std::int64_t>(std::llround((v - origin) / resolution));
}

}  // namespace

std::vector<std::uint8_t> CloudCodec::Encode(const PointCloud& cloud) const {
  obs::Span span("codec.encode", "codec");
  std::vector<std::uint8_t> out;
  out.reserve(16 + cloud.size() * 7);
  PutU32(out, kMagic);
  PutU32(out, static_cast<std::uint32_t>(cloud.size()));
  out.push_back(config_.delta_encode ? kFlagDelta : 0);
  PutF64(out, config_.resolution);
  geom::Vec3 origin;
  if (!cloud.empty()) origin = cloud.Bounds().first;
  PutF64(out, origin.x);
  PutF64(out, origin.y);
  PutF64(out, origin.z);

  std::int64_t prev[3] = {0, 0, 0};
  for (const auto& p : cloud) {
    const std::int64_t q[3] = {
        Quantize(p.position.x, origin.x, config_.resolution),
        Quantize(p.position.y, origin.y, config_.resolution),
        Quantize(p.position.z, origin.z, config_.resolution)};
    for (int a = 0; a < 3; ++a) {
      const std::int64_t v = config_.delta_encode ? q[a] - prev[a] : q[a];
      PutVarint(out, ZigZag(v));
      prev[a] = q[a];
    }
    const double r = std::clamp(static_cast<double>(p.reflectance), 0.0, 1.0);
    out.push_back(static_cast<std::uint8_t>(std::lround(r * 255.0)));
  }
  COOPER_COUNT_N("codec.points_encoded", cloud.size());
  COOPER_COUNT_N("codec.bytes_encoded", out.size());
  return out;
}

Result<PointCloud> CloudCodec::Decode(const std::vector<std::uint8_t>& bytes) {
  obs::Span span("codec.decode", "codec");
  Reader r(bytes);
  std::uint32_t magic = 0, count = 0;
  std::uint8_t flags = 0;
  double resolution = 0.0;
  geom::Vec3 origin;
  if (!r.GetU32(&magic) || magic != kMagic) {
    return DataLossError("bad codec magic");
  }
  if (!r.GetU32(&count) || !r.GetU8(&flags) || !r.GetF64(&resolution) ||
      !r.GetF64(&origin.x) || !r.GetF64(&origin.y) || !r.GetF64(&origin.z)) {
    return DataLossError("truncated codec header");
  }
  if (resolution <= 0.0 || !std::isfinite(resolution)) {
    return DataLossError("invalid codec resolution");
  }
  // Each point consumes at least 4 bytes (three varints + reflectance); a
  // count exceeding that bound is corrupt and must not drive a huge reserve.
  if (static_cast<std::size_t>(count) > bytes.size() / 4) {
    return DataLossError("point count exceeds payload size");
  }
  const bool delta = flags & kFlagDelta;
  PointCloud cloud;
  cloud.reserve(count);
  std::int64_t prev[3] = {0, 0, 0};
  for (std::uint32_t i = 0; i < count; ++i) {
    std::int64_t q[3];
    for (int a = 0; a < 3; ++a) {
      std::uint64_t raw = 0;
      if (!r.GetVarint(&raw)) return DataLossError("truncated point stream");
      const std::int64_t v = UnZigZag(raw);
      q[a] = delta ? prev[a] + v : v;
      prev[a] = q[a];
    }
    std::uint8_t refl = 0;
    if (!r.GetU8(&refl)) return DataLossError("truncated reflectance stream");
    cloud.Add({origin.x + static_cast<double>(q[0]) * resolution,
               origin.y + static_cast<double>(q[1]) * resolution,
               origin.z + static_cast<double>(q[2]) * resolution},
              static_cast<float>(refl) / 255.0f);
  }
  COOPER_COUNT_N("codec.points_decoded", cloud.size());
  COOPER_COUNT_N("codec.bytes_decoded", bytes.size());
  return cloud;
}

}  // namespace cooper::pc
