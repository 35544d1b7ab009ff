// Trace recorder: builds a replayable trace while a live run executes.
//
// The recorder is a passive scribe — the caller still owns the session, the
// transport and the simulator.  It captures the run at exactly the
// boundaries the replayer feeds back (scans, wire bytes, detect calls) and
// computes the golden digests the replayer asserts against.  Typical wiring:
//
//   TraceRecorder rec(config);
//   transport.SetFrameTap([&](double at_ms, const auto& bytes) {
//     rec.RecordWireFrame(base_s + at_ms / 1000.0, bytes);
//     session.ReceiveFrame(bytes, base_s + at_ms / 1000.0).ok();
//   });
//   faults.SetEventSink([&](const net::FaultEvent& e) { rec.RecordFaultEvent(e); });
//   ...
//   const uint32_t id = rec.AddScan(ego_cloud);
//   auto out = session.DetectCooperative(ego_cloud, nav, now_s);
//   rec.RecordStep(now_s, id, nav, out);
//   rec.Finish().WriteFile(path);
#pragma once

#include <string>
#include <vector>

#include "core/cooper.h"
#include "replay/trace.h"

namespace cooper::replay {

/// Occupied voxels of the above-ground part of `fused_cloud` on the
/// detector's grid: `CountOccupiedVoxels(AboveGround(fused_cloud,
/// ground_margin), voxel)`.  A step digest's `num_voxels`.  Detection does not
/// compute this count; recorder and replayer do, from the trace's detector
/// config (`MakeReplayCooperConfig(config, {}).detector`).
std::uint32_t FusedVoxelCount(const pc::PointCloud& fused_cloud,
                              const spod::SpodConfig& detector);

/// Golden digest of one CooperOutput, the unit of replay verification.
/// `detector` is the config the output was detected under.
StepDigest MakeStepDigest(double timestamp_s, const core::CooperOutput& output,
                          const spod::SpodConfig& detector);

/// Chains one step digest into the running end-of-trace digest.
std::uint64_t ChainStepDigest(std::uint64_t combined, const StepDigest& step);

class TraceRecorder {
 public:
  /// Emits the header and the config record.
  explicit TraceRecorder(const TraceConfig& config);

  /// Stores a scan and returns the id a later RecordStep references.
  std::uint32_t AddScan(const pc::PointCloud& cloud);

  /// One wire frame as the receiver saw it (post-channel, post-fault).
  void RecordWireFrame(double now_s, const std::vector<std::uint8_t>& bytes);

  /// One whole package delivered out-of-band (the ReceiveWire boundary).
  void RecordWirePackage(double now_s, const std::vector<std::uint8_t>& bytes);

  /// One feature-level package (kVoxelFeatures wire bytes).  Same payload
  /// shape and replay boundary as RecordWirePackage; the distinct tag lets
  /// tools attribute bandwidth to the exchange level.
  void RecordFeaturePackage(double now_s,
                            const std::vector<std::uint8_t>& bytes);

  /// Fault-injector decision stream (attribution metadata only).
  void RecordFaultEvent(const net::FaultEvent& event);

  /// One fusion step and its golden digest.  `scan_id` must come from a
  /// prior AddScan.  Returns the digest written.
  StepDigest RecordStep(double timestamp_s, std::uint32_t scan_id,
                        const core::NavMetadata& nav,
                        const core::CooperOutput& output);

  /// Terminates the trace with the combined digest.  Append nothing after.
  const TraceWriter& Finish();

  const TraceWriter& writer() const { return writer_; }

 private:
  TraceWriter writer_;
  spod::SpodConfig detector_;  // the recorded run's, for FusedVoxelCount
  std::uint32_t next_scan_id_ = 0;
  std::uint32_t step_count_ = 0;
  std::uint64_t combined_digest_ = 0xcbf29ce484222325ull;
  bool finished_ = false;
};

}  // namespace cooper::replay
