// Deterministic record/replay traces — the binary capture format.
//
// Cooper's core promise is that raw-cloud fusion is bit-reproducible: the
// same inputs must yield the same detections on any thread count, with any
// cache configuration, on any healthy machine.  A *trace* captures one run
// at its pipeline boundaries so that promise can be checked mechanically:
//
//   - the ego vehicle's lidar scans (raw double-precision points — the
//     replay must be bit-exact, so no lossy codec pass);
//   - every wire frame as delivered to the receiver (post-fault bytes, in
//     arrival order — exactly what `CooperativeSession::ReceiveFrame` saw);
//   - whole packages delivered out-of-band (`ReceiveWire` boundary);
//   - the fault injector's event stream (drops/dups/reorders/corruptions,
//     with the seed stamped in the config record) for attribution;
//   - a golden digest per detection step, and a combined digest at the end.
//
// Wire layout (little-endian throughout):
//
//   file   = header record*            (the last record must be kEnd)
//   header = u32 magic 'CTRC' | u16 version | u16 flags (reserved, zero)
//   record = u8 tag | u32 payload_len | payload bytes
//          | u32 crc32(tag || payload_len || payload)
//
// Decoding is defensive: truncation, bad magic, version skew, unknown tags,
// implausible lengths and CRC mismatches are all recoverable DATA_LOSS
// errors, never crashes or over-reads — traces are routinely moved between
// machines and diffed against goldens, so a damaged file must fail cleanly.
// See DESIGN.md "Record/replay traces".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/exchange.h"
#include "net/fault.h"
#include "pointcloud/point_cloud.h"
#include "sim/lidar.h"
#include "spod/detection.h"

namespace cooper::replay {

inline constexpr std::uint32_t kTraceMagic = 0x43525443;  // "CTRC" (le)
inline constexpr std::uint16_t kTraceVersion = 1;
/// Header bytes before the first record: magic + version + flags.
inline constexpr std::size_t kTraceHeaderBytes = 8;
/// Per-record framing overhead: tag + payload length + trailing CRC.
inline constexpr std::size_t kRecordOverheadBytes = 9;
/// Hard cap on one record's payload; larger claims are rejected as corrupt
/// (the largest legitimate record is a raw scan, a few hundred KB).
inline constexpr std::size_t kMaxRecordBytes = 64u << 20;

enum class RecordTag : std::uint8_t {
  kConfig = 1,      // run configuration (must be the first record)
  kScan = 2,        // a raw point cloud, referenced by id from kDetect
  kDetect = 3,      // one fusion step: timestamp + ego nav + scan id
  kWireFrame = 4,   // one transport frame as delivered (ReceiveFrame input)
  kWirePackage = 5, // one whole package as delivered (ReceiveWire input)
  kFaultEvent = 6,  // fault-injector decision for one sent frame
  kStepDigest = 7,  // golden digest of the preceding kDetect's output
  kEnd = 8,         // combined digest over all steps; terminates the trace
  kFeaturePackage = 9,  // one feature-level package as delivered (same
                        // payload shape as kWirePackage; ReceiveWire input)
  kServeEvent = 10,     // one edge-service scheduler event (see
                        // ServeEventRecord); covers the serve path in the
                        // conformance matrix
};

const char* RecordTagName(RecordTag tag);

/// One decoded record: the tag plus its raw payload bytes.
struct Record {
  RecordTag tag = RecordTag::kEnd;
  std::vector<std::uint8_t> payload;
};

// --- Typed record payloads ---

/// Everything the replayer needs to reconstruct the recorded run's pipeline:
/// the lidar geometry (`eval::MakeCooperConfig` is a pure function of it),
/// the session knobs, and the seeds that produced the recorded inputs.  The
/// seeds are attribution metadata — replay feeds back recorded bytes and
/// never re-runs the simulator or the fault injector.
struct TraceConfig {
  std::string name;           // human-readable run label ("kitti-tj-2v", ...)
  sim::LidarConfig lidar;     // drives MakeCooperConfig on replay
  // Session knobs.
  double max_package_age_s = 1.5;
  double max_future_skew_s = 0.1;
  std::uint32_t max_cooperators = 8;
  bool cache_reconstructions = true;
  // Pipeline knobs.
  bool icp_refinement = false;
  std::uint64_t detector_weight_seed = 42;
  std::int32_t num_threads = 1;
  bool observability = false;
  // Provenance: the seeds and fault profile the recording ran under.
  net::FaultProfile faults;
  std::uint64_t fault_seed = 0;
  std::uint64_t scan_seed = 0;
};

/// One fusion step: replaying calls
/// `session.DetectCooperative(scan[scan_id], nav, timestamp_s)`.
struct DetectRecord {
  double timestamp_s = 0.0;
  std::uint32_t scan_id = 0;
  core::NavMetadata nav;
};

/// Golden digest of one step's output, written right after its kDetect.
struct StepDigest {
  double timestamp_s = 0.0;
  std::uint32_t num_detections = 0;
  std::uint64_t detections_digest = 0;
  std::uint32_t fused_points = 0;
  std::uint64_t fused_digest = 0;
  std::uint32_t num_voxels = 0;
  std::uint32_t transmitter_points = 0;
};

/// Trailer payload: combined digest over every step digest, in order.
struct EndRecord {
  std::uint32_t step_count = 0;
  std::uint64_t combined_digest = 0;
};

/// Fault-injector decision for one sent frame (see net::FaultEvent).
struct FaultEventRecord {
  std::uint32_t frame_index = 0;  // 0-based Apply() sequence number
  std::uint8_t flags = 0;         // kFaultDropped | kFaultDuplicated | ...
  std::uint32_t deliveries = 0;   // 0 (dropped), 1, or 2 (duplicated)
  double extra_delay_ms[2] = {0.0, 0.0};
};

/// What one edge-service event was (see `serve::EdgeService`).  The numeric
/// values are wire format — append only.
enum class ServeEventKind : std::uint8_t {
  kSetup = 1,         // one serve-config scalar (index in `vehicle`, bit
                      // pattern in `arg0`) — written before the event stream
  kAdmit = 2,         // cooperator exchange admitted at `level`
  kDowngrade = 3,     // admission ladder stepped the exchange down to `level`
  kReject = 4,        // exchange (or fusion job) shed entirely
  kJobStart = 5,      // fusion job left the queue for a modeled core
  kJobComplete = 6,   // fusion finished; `arg0` = detections digest
  kDeadlineMiss = 7,  // job dropped: it could not finish inside its deadline
  kSummary = 8,       // final tallies: `arg0` = event digest so far,
                      // `arg1` = packed counters
};

/// One edge-service scheduler event.  Fixed 38-byte payload:
/// u8 kind | u64 time_us | u32 vehicle | u32 shard | u8 level |
/// u32 queue_depth | u64 arg0 | u64 arg1.
///
/// `shard` is *excluded* from event digests on purpose: the determinism
/// contract says shard count must not change outcomes, so digests cover only
/// shard-invariant fields and a replay under a different shard count still
/// verifies.  `time_us` is virtual (scheduler) time, never wall clock.
struct ServeEventRecord {
  ServeEventKind kind = ServeEventKind::kSetup;
  std::uint64_t time_us = 0;      // virtual time, microseconds
  std::uint32_t vehicle = 0;      // vehicle id (or setup-scalar index)
  std::uint32_t shard = 0;        // shard the vehicle hashed to (informational)
  std::uint8_t level = 0;         // feat::ExchangeLevel ordinal (0..2), 3 = n/a
  std::uint32_t queue_depth = 0;  // global fusion queue depth at event time
  std::uint64_t arg0 = 0;         // kind-specific (digest, scalar bits, ...)
  std::uint64_t arg1 = 0;         // kind-specific
};

/// Exact encoded size of a ServeEventRecord payload.
inline constexpr std::size_t kServeEventBytes = 38;

/// Digest over the shard-invariant fields of one serve event, chained on
/// `seed`.  This is the unit the determinism contract is checked with.
std::uint64_t DigestServeEvent(const ServeEventRecord& event,
                               std::uint64_t seed);

inline constexpr std::uint8_t kFaultDropped = 1u << 0;
inline constexpr std::uint8_t kFaultDuplicated = 1u << 1;
inline constexpr std::uint8_t kFaultCorrupted = 1u << 2;
inline constexpr std::uint8_t kFaultTruncated = 1u << 3;
inline constexpr std::uint8_t kFaultReordered = 1u << 4;
inline constexpr std::uint8_t kFaultDelayed = 1u << 5;

// --- Digests ---

/// FNV-1a 64 over raw bytes; `seed` chains digests.
std::uint64_t DigestBytes(const void* data, std::size_t size,
                          std::uint64_t seed = 0xcbf29ce484222325ull);

/// Canonical digest over a detection list: every float's bit pattern (box
/// center/extents/yaw, score), the class and the supporting-point count, in
/// list order.  Any single diverging bit anywhere changes the digest.
std::uint64_t DigestDetections(const std::vector<spod::Detection>& detections);

/// Canonical digest over a point cloud: position and reflectance bit
/// patterns in point order.
std::uint64_t DigestCloud(const pc::PointCloud& cloud);

// --- Writer ---

/// Appends CRC-framed records to an in-memory trace image.
class TraceWriter {
 public:
  TraceWriter();  // emits the file header

  void Append(RecordTag tag, const std::vector<std::uint8_t>& payload);

  // Typed appends (encode then frame).
  void AppendConfig(const TraceConfig& config);
  void AppendScan(std::uint32_t scan_id, const pc::PointCloud& cloud);
  void AppendDetect(const DetectRecord& detect);
  void AppendWireFrame(double now_s, const std::vector<std::uint8_t>& bytes);
  void AppendWirePackage(double now_s, const std::vector<std::uint8_t>& bytes);
  void AppendFeaturePackage(double now_s,
                            const std::vector<std::uint8_t>& bytes);
  void AppendFaultEvent(const FaultEventRecord& event);
  void AppendServeEvent(const ServeEventRecord& event);
  void AppendStepDigest(const StepDigest& digest);
  void AppendEnd(const EndRecord& end);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  Status WriteFile(const std::string& path) const;

 private:
  std::vector<std::uint8_t> bytes_;
};

// --- Reader ---

/// Sequential bounds-checked record decoder.  Every failure mode is a clean
/// DATA_LOSS/INVALID_ARGUMENT Status; the reader never reads past the end of
/// the supplied buffer.  The buffer must outlive the reader.
class TraceReader {
 public:
  explicit TraceReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  /// Validates the file header.  Must be called (successfully) before Next.
  Status ReadHeader();

  /// True once the cursor sits exactly at the end of the buffer.  A trace
  /// whose last record is not kEnd is truncated (Next reports the error).
  bool AtEnd() const { return pos_ == bytes_.size(); }

  /// Decodes the next record.  Fails on truncation, unknown tags, oversized
  /// lengths and CRC mismatch.
  Result<Record> Next();

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
  bool header_ok_ = false;
};

// --- Typed payload decoders (bounds-checked) ---

Result<TraceConfig> DecodeConfig(const std::vector<std::uint8_t>& payload);
Result<std::pair<std::uint32_t, pc::PointCloud>> DecodeScan(
    const std::vector<std::uint8_t>& payload);
Result<DetectRecord> DecodeDetect(const std::vector<std::uint8_t>& payload);
/// Shared shape of kWireFrame, kWirePackage and kFeaturePackage payloads.
Result<std::pair<double, std::vector<std::uint8_t>>> DecodeWireBytes(
    const std::vector<std::uint8_t>& payload);
Result<FaultEventRecord> DecodeFaultEvent(
    const std::vector<std::uint8_t>& payload);
Result<ServeEventRecord> DecodeServeEvent(
    const std::vector<std::uint8_t>& payload);
Result<StepDigest> DecodeStepDigest(const std::vector<std::uint8_t>& payload);
Result<EndRecord> DecodeEnd(const std::vector<std::uint8_t>& payload);

/// Reads a whole trace file into memory.
Result<std::vector<std::uint8_t>> ReadTraceFile(const std::string& path);

}  // namespace cooper::replay
