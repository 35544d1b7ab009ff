#include "replay/trace.h"

#include <cstdio>
#include <cstring>

#include "net/crc32.h"

namespace cooper::replay {

namespace {

// --- Little-endian primitive writers over a byte vector ---

void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutI32(std::vector<std::uint8_t>& out, std::int32_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
}

void PutF64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}

void PutF32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  PutU32(out, bits);
}

void PutVec3(std::vector<std::uint8_t>& out, const geom::Vec3& v) {
  PutF64(out, v.x);
  PutF64(out, v.y);
  PutF64(out, v.z);
}

void PutNav(std::vector<std::uint8_t>& out, const core::NavMetadata& nav) {
  PutVec3(out, nav.gps_position);
  PutF64(out, nav.imu_attitude.yaw);
  PutF64(out, nav.imu_attitude.pitch);
  PutF64(out, nav.imu_attitude.roll);
  PutVec3(out, nav.lidar_mount);
}

// --- Bounds-checked little-endian reader ---
//
// Every Get* checks remaining length and fails by returning false; callers
// translate a failed cursor into one DATA_LOSS status.  The cursor can never
// move past `size`, so no payload decoder over-reads.
struct ByteReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::size_t remaining() const { return size - pos; }

  bool GetU8(std::uint8_t* v) {
    if (remaining() < 1) return false;
    *v = data[pos++];
    return true;
  }
  bool GetU16(std::uint16_t* v) {
    if (remaining() < 2) return false;
    *v = static_cast<std::uint16_t>(data[pos] | (data[pos + 1] << 8));
    pos += 2;
    return true;
  }
  bool GetU32(std::uint32_t* v) {
    if (remaining() < 4) return false;
    std::uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    pos += 4;
    *v = r;
    return true;
  }
  bool GetU64(std::uint64_t* v) {
    if (remaining() < 8) return false;
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    pos += 8;
    *v = r;
    return true;
  }
  bool GetI32(std::int32_t* v) {
    std::uint32_t u;
    if (!GetU32(&u)) return false;
    *v = static_cast<std::int32_t>(u);
    return true;
  }
  bool GetF64(double* v) {
    std::uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }
  bool GetF32(float* v) {
    std::uint32_t bits;
    if (!GetU32(&bits)) return false;
    std::memcpy(v, &bits, 4);
    return true;
  }
  bool GetVec3(geom::Vec3* v) {
    return GetF64(&v->x) && GetF64(&v->y) && GetF64(&v->z);
  }
  bool GetNav(core::NavMetadata* nav) {
    return GetVec3(&nav->gps_position) && GetF64(&nav->imu_attitude.yaw) &&
           GetF64(&nav->imu_attitude.pitch) &&
           GetF64(&nav->imu_attitude.roll) && GetVec3(&nav->lidar_mount);
  }
  bool GetBytes(std::size_t n, std::vector<std::uint8_t>* out) {
    if (remaining() < n) return false;
    out->assign(data + pos, data + pos + n);
    pos += n;
    return true;
  }
};

bool KnownTag(std::uint8_t tag) {
  return tag >= static_cast<std::uint8_t>(RecordTag::kConfig) &&
         tag <= static_cast<std::uint8_t>(RecordTag::kServeEvent);
}

}  // namespace

const char* RecordTagName(RecordTag tag) {
  switch (tag) {
    case RecordTag::kConfig: return "config";
    case RecordTag::kScan: return "scan";
    case RecordTag::kDetect: return "detect";
    case RecordTag::kWireFrame: return "wire_frame";
    case RecordTag::kWirePackage: return "wire_package";
    case RecordTag::kFaultEvent: return "fault_event";
    case RecordTag::kStepDigest: return "step_digest";
    case RecordTag::kEnd: return "end";
    case RecordTag::kFeaturePackage: return "feature_package";
    case RecordTag::kServeEvent: return "serve_event";
  }
  return "unknown";
}

// --- Digests ---

std::uint64_t DigestBytes(const void* data, std::size_t size,
                          std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

std::uint64_t DigestF64(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return DigestBytes(&bits, 8, h);
}

std::uint64_t DigestF32(std::uint64_t h, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  return DigestBytes(&bits, 4, h);
}

std::uint64_t DigestU64(std::uint64_t h, std::uint64_t v) {
  return DigestBytes(&v, 8, h);
}

}  // namespace

std::uint64_t DigestDetections(const std::vector<spod::Detection>& detections) {
  std::uint64_t h = DigestU64(0xcbf29ce484222325ull, detections.size());
  for (const auto& d : detections) {
    h = DigestF64(h, d.box.center.x);
    h = DigestF64(h, d.box.center.y);
    h = DigestF64(h, d.box.center.z);
    h = DigestF64(h, d.box.length);
    h = DigestF64(h, d.box.width);
    h = DigestF64(h, d.box.height);
    h = DigestF64(h, d.box.yaw);
    h = DigestF64(h, d.score);
    h = DigestU64(h, static_cast<std::uint64_t>(d.cls));
    h = DigestU64(h, d.num_points);
  }
  return h;
}

std::uint64_t DigestCloud(const pc::PointCloud& cloud) {
  std::uint64_t h = DigestU64(0xcbf29ce484222325ull, cloud.size());
  for (const auto& p : cloud) {
    h = DigestF64(h, p.position.x);
    h = DigestF64(h, p.position.y);
    h = DigestF64(h, p.position.z);
    h = DigestF32(h, p.reflectance);
  }
  return h;
}

// --- Writer ---

TraceWriter::TraceWriter() {
  PutU32(bytes_, kTraceMagic);
  PutU16(bytes_, kTraceVersion);
  PutU16(bytes_, 0);  // flags, reserved
}

void TraceWriter::Append(RecordTag tag, const std::vector<std::uint8_t>& payload) {
  COOPER_CHECK(payload.size() <= kMaxRecordBytes);
  const std::size_t frame_start = bytes_.size();
  PutU8(bytes_, static_cast<std::uint8_t>(tag));
  PutU32(bytes_, static_cast<std::uint32_t>(payload.size()));
  bytes_.insert(bytes_.end(), payload.begin(), payload.end());
  PutU32(bytes_, net::Crc32(bytes_.data() + frame_start,
                            bytes_.size() - frame_start));
}

void TraceWriter::AppendConfig(const TraceConfig& c) {
  std::vector<std::uint8_t> p;
  PutU16(p, static_cast<std::uint16_t>(c.name.size()));
  p.insert(p.end(), c.name.begin(), c.name.end());
  PutI32(p, c.lidar.beams);
  PutF64(p, c.lidar.fov_up_deg);
  PutF64(p, c.lidar.fov_down_deg);
  PutI32(p, c.lidar.azimuth_steps);
  PutF64(p, c.lidar.max_range);
  PutF64(p, c.lidar.min_range);
  PutF64(p, c.lidar.range_noise_stddev);
  PutF64(p, c.lidar.dropout_prob);
  PutF64(p, c.lidar.sensor_height);
  PutF64(p, c.max_package_age_s);
  PutF64(p, c.max_future_skew_s);
  PutU32(p, c.max_cooperators);
  PutU8(p, c.cache_reconstructions ? 1 : 0);
  PutU8(p, c.icp_refinement ? 1 : 0);
  PutU64(p, c.detector_weight_seed);
  PutI32(p, c.num_threads);
  PutU8(p, 1);  // retired scratch-reuse knob; always on
  PutU8(p, c.observability ? 1 : 0);
  PutU8(p, 1);  // retired rulebook-cache knob; always on
  PutF64(p, c.faults.drop_prob);
  PutF64(p, c.faults.duplicate_prob);
  PutF64(p, c.faults.reorder_prob);
  PutF64(p, c.faults.corrupt_prob);
  PutF64(p, c.faults.truncate_prob);
  PutF64(p, c.faults.delay_prob);
  PutF64(p, c.faults.reorder_delay_ms);
  PutF64(p, c.faults.delay_ms);
  PutU64(p, c.fault_seed);
  PutU64(p, c.scan_seed);
  Append(RecordTag::kConfig, p);
}

void TraceWriter::AppendScan(std::uint32_t scan_id, const pc::PointCloud& cloud) {
  std::vector<std::uint8_t> p;
  p.reserve(8 + cloud.size() * 28);
  PutU32(p, scan_id);
  PutU32(p, static_cast<std::uint32_t>(cloud.size()));
  for (const auto& pt : cloud) {
    PutVec3(p, pt.position);
    PutF32(p, pt.reflectance);
  }
  Append(RecordTag::kScan, p);
}

void TraceWriter::AppendDetect(const DetectRecord& d) {
  std::vector<std::uint8_t> p;
  PutF64(p, d.timestamp_s);
  PutU32(p, d.scan_id);
  PutNav(p, d.nav);
  Append(RecordTag::kDetect, p);
}

void TraceWriter::AppendWireFrame(double now_s,
                                  const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> p;
  p.reserve(12 + bytes.size());
  PutF64(p, now_s);
  PutU32(p, static_cast<std::uint32_t>(bytes.size()));
  p.insert(p.end(), bytes.begin(), bytes.end());
  Append(RecordTag::kWireFrame, p);
}

void TraceWriter::AppendWirePackage(double now_s,
                                    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> p;
  p.reserve(12 + bytes.size());
  PutF64(p, now_s);
  PutU32(p, static_cast<std::uint32_t>(bytes.size()));
  p.insert(p.end(), bytes.begin(), bytes.end());
  Append(RecordTag::kWirePackage, p);
}

void TraceWriter::AppendFeaturePackage(double now_s,
                                       const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> p;
  p.reserve(12 + bytes.size());
  PutF64(p, now_s);
  PutU32(p, static_cast<std::uint32_t>(bytes.size()));
  p.insert(p.end(), bytes.begin(), bytes.end());
  Append(RecordTag::kFeaturePackage, p);
}

void TraceWriter::AppendFaultEvent(const FaultEventRecord& e) {
  std::vector<std::uint8_t> p;
  PutU32(p, e.frame_index);
  PutU8(p, e.flags);
  PutU32(p, e.deliveries);
  PutF64(p, e.extra_delay_ms[0]);
  PutF64(p, e.extra_delay_ms[1]);
  Append(RecordTag::kFaultEvent, p);
}

void TraceWriter::AppendServeEvent(const ServeEventRecord& e) {
  std::vector<std::uint8_t> p;
  p.reserve(kServeEventBytes);
  PutU8(p, static_cast<std::uint8_t>(e.kind));
  PutU64(p, e.time_us);
  PutU32(p, e.vehicle);
  PutU32(p, e.shard);
  PutU8(p, e.level);
  PutU32(p, e.queue_depth);
  PutU64(p, e.arg0);
  PutU64(p, e.arg1);
  COOPER_CHECK(p.size() == kServeEventBytes);
  Append(RecordTag::kServeEvent, p);
}

void TraceWriter::AppendStepDigest(const StepDigest& d) {
  std::vector<std::uint8_t> p;
  PutF64(p, d.timestamp_s);
  PutU32(p, d.num_detections);
  PutU64(p, d.detections_digest);
  PutU32(p, d.fused_points);
  PutU64(p, d.fused_digest);
  PutU32(p, d.num_voxels);
  PutU32(p, d.transmitter_points);
  Append(RecordTag::kStepDigest, p);
}

void TraceWriter::AppendEnd(const EndRecord& e) {
  std::vector<std::uint8_t> p;
  PutU32(p, e.step_count);
  PutU64(p, e.combined_digest);
  Append(RecordTag::kEnd, p);
}

Status TraceWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return UnavailableError("cannot open " + path);
  const std::size_t written = std::fwrite(bytes_.data(), 1, bytes_.size(), f);
  std::fclose(f);
  if (written != bytes_.size()) return DataLossError("short write to " + path);
  return Status::Ok();
}

// --- Reader ---

Status TraceReader::ReadHeader() {
  if (bytes_.size() < kTraceHeaderBytes) {
    return DataLossError("trace shorter than header");
  }
  ByteReader r{bytes_.data(), bytes_.size()};
  std::uint32_t magic = 0;
  std::uint16_t version = 0, flags = 0;
  if (!r.GetU32(&magic) || !r.GetU16(&version) || !r.GetU16(&flags)) {
    return DataLossError("trace header truncated");
  }
  if (magic != kTraceMagic) return DataLossError("bad trace magic");
  if (version != kTraceVersion) {
    return DataLossError("unsupported trace version " + std::to_string(version));
  }
  if (flags != 0) return DataLossError("unsupported trace flags");
  pos_ = r.pos;
  header_ok_ = true;
  return Status::Ok();
}

Result<Record> TraceReader::Next() {
  if (!header_ok_) return FailedPreconditionError("header not validated");
  if (AtEnd()) return OutOfRangeError("end of trace");
  if (bytes_.size() - pos_ < kRecordOverheadBytes) {
    return DataLossError("truncated record header");
  }
  ByteReader r{bytes_.data(), bytes_.size(), pos_};
  std::uint8_t tag = 0;
  std::uint32_t len = 0;
  if (!r.GetU8(&tag) || !r.GetU32(&len)) {
    return DataLossError("truncated record header");
  }
  if (!KnownTag(tag)) {
    return DataLossError("unknown record tag " + std::to_string(tag));
  }
  if (len > kMaxRecordBytes) return DataLossError("implausible record length");
  if (r.remaining() < static_cast<std::size_t>(len) + 4) {
    return DataLossError("record payload truncated");
  }
  Record record;
  record.tag = static_cast<RecordTag>(tag);
  if (!r.GetBytes(len, &record.payload)) {
    return DataLossError("record payload truncated");
  }
  const std::uint32_t computed =
      net::Crc32(bytes_.data() + pos_, r.pos - pos_);
  std::uint32_t stored = 0;
  if (!r.GetU32(&stored)) return DataLossError("record CRC truncated");
  if (stored != computed) return DataLossError("record CRC mismatch");
  pos_ = r.pos;
  return record;
}

// --- Typed payload decoders ---

namespace {

Status Truncated(const char* what) {
  return DataLossError(std::string(what) + " payload truncated");
}

}  // namespace

Result<TraceConfig> DecodeConfig(const std::vector<std::uint8_t>& payload) {
  ByteReader r{payload.data(), payload.size()};
  TraceConfig c;
  std::uint16_t name_len = 0;
  if (!r.GetU16(&name_len)) return Truncated("config");
  std::vector<std::uint8_t> name;
  if (!r.GetBytes(name_len, &name)) return Truncated("config");
  c.name.assign(name.begin(), name.end());
  // `reuse` and `rulebook` hold retired knobs: read to keep the layout,
  // then discarded.
  std::uint8_t cache = 0, icp = 0, reuse = 0, obs = 0, rulebook = 0;
  if (!r.GetI32(&c.lidar.beams) || !r.GetF64(&c.lidar.fov_up_deg) ||
      !r.GetF64(&c.lidar.fov_down_deg) || !r.GetI32(&c.lidar.azimuth_steps) ||
      !r.GetF64(&c.lidar.max_range) || !r.GetF64(&c.lidar.min_range) ||
      !r.GetF64(&c.lidar.range_noise_stddev) ||
      !r.GetF64(&c.lidar.dropout_prob) || !r.GetF64(&c.lidar.sensor_height) ||
      !r.GetF64(&c.max_package_age_s) || !r.GetF64(&c.max_future_skew_s) ||
      !r.GetU32(&c.max_cooperators) || !r.GetU8(&cache) || !r.GetU8(&icp) ||
      !r.GetU64(&c.detector_weight_seed) || !r.GetI32(&c.num_threads) ||
      !r.GetU8(&reuse) || !r.GetU8(&obs) || !r.GetU8(&rulebook) ||
      !r.GetF64(&c.faults.drop_prob) || !r.GetF64(&c.faults.duplicate_prob) ||
      !r.GetF64(&c.faults.reorder_prob) || !r.GetF64(&c.faults.corrupt_prob) ||
      !r.GetF64(&c.faults.truncate_prob) || !r.GetF64(&c.faults.delay_prob) ||
      !r.GetF64(&c.faults.reorder_delay_ms) || !r.GetF64(&c.faults.delay_ms) ||
      !r.GetU64(&c.fault_seed) || !r.GetU64(&c.scan_seed)) {
    return Truncated("config");
  }
  if (r.remaining() != 0) return DataLossError("config payload has trailing bytes");
  if (c.lidar.beams <= 0 || c.lidar.beams > 1024 ||
      c.lidar.azimuth_steps <= 0 || c.lidar.azimuth_steps > 1 << 20) {
    return DataLossError("config lidar geometry implausible");
  }
  c.cache_reconstructions = cache != 0;
  c.icp_refinement = icp != 0;
  c.observability = obs != 0;
  return c;
}

Result<std::pair<std::uint32_t, pc::PointCloud>> DecodeScan(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r{payload.data(), payload.size()};
  std::uint32_t scan_id = 0, count = 0;
  if (!r.GetU32(&scan_id) || !r.GetU32(&count)) return Truncated("scan");
  // 28 bytes per point: the count must agree with the payload length before
  // any allocation happens (a lying count must not reserve gigabytes).
  if (r.remaining() != static_cast<std::size_t>(count) * 28) {
    return DataLossError("scan point count disagrees with payload length");
  }
  pc::PointCloud cloud;
  cloud.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    geom::Vec3 pos;
    float reflectance = 0.0f;
    if (!r.GetVec3(&pos) || !r.GetF32(&reflectance)) return Truncated("scan");
    cloud.Add(pos, reflectance);
  }
  return std::make_pair(scan_id, std::move(cloud));
}

Result<DetectRecord> DecodeDetect(const std::vector<std::uint8_t>& payload) {
  ByteReader r{payload.data(), payload.size()};
  DetectRecord d;
  if (!r.GetF64(&d.timestamp_s) || !r.GetU32(&d.scan_id) || !r.GetNav(&d.nav)) {
    return Truncated("detect");
  }
  if (r.remaining() != 0) return DataLossError("detect payload has trailing bytes");
  return d;
}

Result<std::pair<double, std::vector<std::uint8_t>>> DecodeWireBytes(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r{payload.data(), payload.size()};
  double now_s = 0.0;
  std::uint32_t len = 0;
  if (!r.GetF64(&now_s) || !r.GetU32(&len)) return Truncated("wire");
  if (r.remaining() != len) {
    return DataLossError("wire byte count disagrees with payload length");
  }
  std::vector<std::uint8_t> bytes;
  if (!r.GetBytes(len, &bytes)) return Truncated("wire");
  return std::make_pair(now_s, std::move(bytes));
}

Result<FaultEventRecord> DecodeFaultEvent(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r{payload.data(), payload.size()};
  FaultEventRecord e;
  if (!r.GetU32(&e.frame_index) || !r.GetU8(&e.flags) ||
      !r.GetU32(&e.deliveries) || !r.GetF64(&e.extra_delay_ms[0]) ||
      !r.GetF64(&e.extra_delay_ms[1])) {
    return Truncated("fault_event");
  }
  if (r.remaining() != 0) {
    return DataLossError("fault_event payload has trailing bytes");
  }
  return e;
}

Result<ServeEventRecord> DecodeServeEvent(
    const std::vector<std::uint8_t>& payload) {
  // Fixed-size payload: reject any other length up front so a lying record
  // cannot smuggle trailing bytes past the field decode.
  if (payload.size() != kServeEventBytes) {
    return DataLossError("serve_event payload size mismatch");
  }
  ByteReader r{payload.data(), payload.size()};
  ServeEventRecord e;
  std::uint8_t kind = 0;
  if (!r.GetU8(&kind) || !r.GetU64(&e.time_us) || !r.GetU32(&e.vehicle) ||
      !r.GetU32(&e.shard) || !r.GetU8(&e.level) || !r.GetU32(&e.queue_depth) ||
      !r.GetU64(&e.arg0) || !r.GetU64(&e.arg1)) {
    return Truncated("serve_event");
  }
  if (kind < static_cast<std::uint8_t>(ServeEventKind::kSetup) ||
      kind > static_cast<std::uint8_t>(ServeEventKind::kSummary)) {
    return DataLossError("serve_event kind out of range");
  }
  // Levels 0..2 are the exchange ladder; 3 marks "not applicable".
  if (e.level > 3) return DataLossError("serve_event level out of range");
  e.kind = static_cast<ServeEventKind>(kind);
  return e;
}

std::uint64_t DigestServeEvent(const ServeEventRecord& event,
                               std::uint64_t seed) {
  // Shard-invariant fields only — see the header comment on
  // ServeEventRecord.  Field order is part of the digest definition.
  std::uint64_t h = seed;
  const std::uint8_t kind = static_cast<std::uint8_t>(event.kind);
  h = DigestBytes(&kind, 1, h);
  h = DigestU64(h, event.time_us);
  h = DigestU64(h, event.vehicle);
  h = DigestBytes(&event.level, 1, h);
  h = DigestU64(h, event.queue_depth);
  h = DigestU64(h, event.arg0);
  h = DigestU64(h, event.arg1);
  return h;
}

Result<StepDigest> DecodeStepDigest(const std::vector<std::uint8_t>& payload) {
  ByteReader r{payload.data(), payload.size()};
  StepDigest d;
  if (!r.GetF64(&d.timestamp_s) || !r.GetU32(&d.num_detections) ||
      !r.GetU64(&d.detections_digest) || !r.GetU32(&d.fused_points) ||
      !r.GetU64(&d.fused_digest) || !r.GetU32(&d.num_voxels) ||
      !r.GetU32(&d.transmitter_points)) {
    return Truncated("step_digest");
  }
  if (r.remaining() != 0) {
    return DataLossError("step_digest payload has trailing bytes");
  }
  return d;
}

Result<EndRecord> DecodeEnd(const std::vector<std::uint8_t>& payload) {
  ByteReader r{payload.data(), payload.size()};
  EndRecord e;
  if (!r.GetU32(&e.step_count) || !r.GetU64(&e.combined_digest)) {
    return Truncated("end");
  }
  if (r.remaining() != 0) return DataLossError("end payload has trailing bytes");
  return e;
}

Result<std::vector<std::uint8_t>> ReadTraceFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return UnavailableError("cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[64 * 1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return DataLossError("read error on " + path);
  return bytes;
}

}  // namespace cooper::replay
