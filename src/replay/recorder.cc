#include "replay/recorder.h"

#include "pointcloud/point_cloud.h"
#include "pointcloud/voxel_grid.h"
#include "replay/replayer.h"

namespace cooper::replay {

std::uint32_t FusedVoxelCount(const pc::PointCloud& fused_cloud,
                              const spod::SpodConfig& detector) {
  return static_cast<std::uint32_t>(pc::CountOccupiedVoxels(
      pc::AboveGround(fused_cloud, detector.ground_margin), detector.voxel));
}

StepDigest MakeStepDigest(double timestamp_s, const core::CooperOutput& output,
                          const spod::SpodConfig& detector) {
  StepDigest d;
  d.timestamp_s = timestamp_s;
  d.num_detections = static_cast<std::uint32_t>(output.fused.detections.size());
  d.detections_digest = DigestDetections(output.fused.detections);
  d.fused_points = static_cast<std::uint32_t>(output.fused_cloud.size());
  d.fused_digest = DigestCloud(output.fused_cloud);
  d.num_voxels = FusedVoxelCount(output.fused_cloud, detector);
  d.transmitter_points = static_cast<std::uint32_t>(output.transmitter_points);
  return d;
}

std::uint64_t ChainStepDigest(std::uint64_t combined, const StepDigest& step) {
  // Chain only the output-defining fields (not the timestamp — it is an
  // input, already covered by the kDetect record).
  std::uint64_t h = combined;
  h = DigestBytes(&step.num_detections, sizeof step.num_detections, h);
  h = DigestBytes(&step.detections_digest, sizeof step.detections_digest, h);
  h = DigestBytes(&step.fused_points, sizeof step.fused_points, h);
  h = DigestBytes(&step.fused_digest, sizeof step.fused_digest, h);
  h = DigestBytes(&step.num_voxels, sizeof step.num_voxels, h);
  h = DigestBytes(&step.transmitter_points, sizeof step.transmitter_points, h);
  return h;
}

TraceRecorder::TraceRecorder(const TraceConfig& config)
    : detector_(MakeReplayCooperConfig(config, {}).detector) {
  writer_.AppendConfig(config);
}

std::uint32_t TraceRecorder::AddScan(const pc::PointCloud& cloud) {
  COOPER_CHECK(!finished_);
  const std::uint32_t id = next_scan_id_++;
  writer_.AppendScan(id, cloud);
  return id;
}

void TraceRecorder::RecordWireFrame(double now_s,
                                    const std::vector<std::uint8_t>& bytes) {
  COOPER_CHECK(!finished_);
  writer_.AppendWireFrame(now_s, bytes);
}

void TraceRecorder::RecordWirePackage(double now_s,
                                      const std::vector<std::uint8_t>& bytes) {
  COOPER_CHECK(!finished_);
  writer_.AppendWirePackage(now_s, bytes);
}

void TraceRecorder::RecordFeaturePackage(double now_s,
                                         const std::vector<std::uint8_t>& bytes) {
  COOPER_CHECK(!finished_);
  writer_.AppendFeaturePackage(now_s, bytes);
}

void TraceRecorder::RecordFaultEvent(const net::FaultEvent& event) {
  COOPER_CHECK(!finished_);
  FaultEventRecord rec;
  rec.frame_index = static_cast<std::uint32_t>(event.frame_index);
  rec.flags = static_cast<std::uint8_t>(
      (event.dropped ? kFaultDropped : 0) |
      (event.duplicated ? kFaultDuplicated : 0) |
      (event.corrupted ? kFaultCorrupted : 0) |
      (event.truncated ? kFaultTruncated : 0) |
      (event.reordered ? kFaultReordered : 0) |
      (event.delayed ? kFaultDelayed : 0));
  rec.deliveries = static_cast<std::uint32_t>(event.deliveries);
  rec.extra_delay_ms[0] = event.extra_delay_ms[0];
  rec.extra_delay_ms[1] = event.extra_delay_ms[1];
  writer_.AppendFaultEvent(rec);
}

StepDigest TraceRecorder::RecordStep(double timestamp_s, std::uint32_t scan_id,
                                     const core::NavMetadata& nav,
                                     const core::CooperOutput& output) {
  COOPER_CHECK(!finished_);
  COOPER_CHECK(scan_id < next_scan_id_);
  DetectRecord detect;
  detect.timestamp_s = timestamp_s;
  detect.scan_id = scan_id;
  detect.nav = nav;
  writer_.AppendDetect(detect);
  const StepDigest digest = MakeStepDigest(timestamp_s, output, detector_);
  writer_.AppendStepDigest(digest);
  combined_digest_ = ChainStepDigest(combined_digest_, digest);
  ++step_count_;
  return digest;
}

const TraceWriter& TraceRecorder::Finish() {
  COOPER_CHECK(!finished_);
  finished_ = true;
  EndRecord end;
  end.step_count = step_count_;
  end.combined_digest = combined_digest_;
  writer_.AppendEnd(end);
  return writer_;
}

}  // namespace cooper::replay
