#include "core/cooper.h"

#include <algorithm>

#include "common/simd.h"
#include "common/status.h"
#include "feat/fusion.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cooper::core {

namespace {

// One knob drives every parallel stage: the pipeline-level thread count
// overrides whatever the sub-configs carried.
CooperConfig WithThreads(CooperConfig config) {
  config.detector.num_threads = config.num_threads;
  config.icp.num_threads = config.num_threads;
  return config;
}

// `scan` without its non-finite points.  One such point would poison the
// codec origin, the ground percentile or a quantised coordinate, so the
// sender drops them before building any level.  Returns `scan` itself when
// every point is finite (no copy), else the cleaned copy in `storage`.
const pc::PointCloud& FinitePoints(const pc::PointCloud& scan,
                                   pc::PointCloud& storage) {
  if (std::all_of(scan.begin(), scan.end(), pc::IsFinite)) return scan;
  storage = scan;
  const std::size_t dropped = storage.RemoveInvalid();
  COOPER_COUNT_N("cooper.points_dropped_invalid", dropped);
  return storage;
}

}  // namespace

CooperPipeline::CooperPipeline(const CooperConfig& config)
    : config_(WithThreads(config)),
      detector_(config_.detector, config_.sensor, config_.detector_weight_seed),
      codec_(config_.codec) {
  // Sticky: enabling is one-way so overlapping pipelines cannot strobe the
  // process-wide flag off under a pipeline that asked for it.
  if (config_.observability) obs::SetEnabled(true);
  // Apply the SIMD dispatch knob.  Like the obs flag this is process-wide;
  // unlike it, "auto" restores detection, so the last-constructed pipeline
  // wins.  Results are bit-identical across tiers, so overlapping pipelines
  // with different knobs differ only in speed.
  const auto mode = common::simd::ParseMode(config_.simd);
  COOPER_CHECK(mode.has_value());
  common::simd::SetMode(*mode);
}

ExchangePackage CooperPipeline::MakePackage(std::uint32_t sender_id,
                                            double timestamp_s,
                                            RoiCategory roi,
                                            const NavMetadata& nav,
                                            const pc::PointCloud& local_cloud) const {
  obs::Span span("cooper.make_package", "core");
  pc::PointCloud storage;
  const pc::PointCloud& scan = FinitePoints(local_cloud, storage);
  const pc::PointCloud roi_cloud = ExtractRoi(scan, roi, config_.roi);
  COOPER_COUNT("cooper.packages_built");
  COOPER_COUNT_N("cooper.roi_points", roi_cloud.size());
  return BuildPackage(sender_id, timestamp_s, roi, nav, roi_cloud, codec_);
}

ExchangePackage CooperPipeline::MakeLeveledPackage(
    std::uint32_t sender_id, double timestamp_s, RoiCategory roi,
    feat::ExchangeLevel level, const NavMetadata& nav,
    const pc::PointCloud& raw_scan) const {
  obs::Span span("cooper.make_leveled_package", "core");
  pc::PointCloud storage;
  const pc::PointCloud& local_cloud = FinitePoints(raw_scan, storage);
  switch (level) {
    case feat::ExchangeLevel::kRawCloud: {
      // Whole scan, no ROI filter — the paper's raw exchange baseline.  The
      // roi field still records what the receiver asked for.
      COOPER_COUNT("cooper.packages_built_raw");
      ExchangePackage p =
          BuildPackage(sender_id, timestamp_s, roi, nav, local_cloud, codec_);
      p.level = feat::ExchangeLevel::kRawCloud;
      return p;
    }
    case feat::ExchangeLevel::kRoiCloud:
      return MakePackage(sender_id, timestamp_s, roi, nav, local_cloud);
    case feat::ExchangeLevel::kVoxelFeatures: {
      // Feature tap of the ROI-filtered scan: the receiver's demand bounds
      // what is encoded, exactly as it bounds the cloud levels.
      const pc::PointCloud roi_cloud = ExtractRoi(local_cloud, roi, config_.roi);
      feat::FeatureMap map = detector_.ExtractFeatureMap(roi_cloud);
      map = feat::MaxPool(map, config_.feature_pool);
      COOPER_COUNT("cooper.packages_built_features");
      return BuildFeaturePackage(sender_id, timestamp_s, roi, nav, map,
                                 feat::FeatureCodec(config_.feature_codec));
    }
  }
  return MakePackage(sender_id, timestamp_s, roi, nav, local_cloud);
}

spod::SpodResult CooperPipeline::DetectSingleShot(
    const pc::PointCloud& local_cloud) const {
  obs::Span span("cooper.detect_single_shot", "core");
  return detector_.Detect(local_cloud);
}

geom::Pose CooperPipeline::ReceiverFromSender(const NavMetadata& local_nav,
                                              const NavMetadata& remote_nav) {
  // Eq. 3: the transform follows from the difference between the two
  // vehicles' GPS/IMU readings (both poses are in the shared world frame).
  return geom::Pose::Between(local_nav.SensorPose(), remote_nav.SensorPose());
}

pc::PointCloud CooperPipeline::IcpTarget(const pc::PointCloud& local_cloud) const {
  if (!config_.icp_refinement || local_cloud.empty()) return {};
  return local_cloud.FilterMinZ(pc::EstimateGroundZ(local_cloud) + 0.3);
}

pc::PointCloud CooperPipeline::RefineAlignment(pc::PointCloud remote,
                                               const pc::PointCloud& icp_target,
                                               pc::IcpScratch* scratch) const {
  if (!config_.icp_refinement || remote.empty() || icp_target.empty()) {
    return remote;
  }
  // Register above-ground structure only: flat ground constrains neither
  // x/y translation nor yaw, which are exactly the drifting axes.
  const pc::PointCloud src =
      remote.FilterMinZ(pc::EstimateGroundZ(remote) + 0.3);
  const pc::IcpResult icp = pc::IcpAlign(src, icp_target,
                                         geom::Pose::Identity(), config_.icp,
                                         scratch);
  if (icp.Improved()) remote.Transform(icp.transform);
  return remote;
}

Result<pc::PointCloud> CooperPipeline::ReconstructRemoteCloud(
    const NavMetadata& local_nav, const ExchangePackage& package) const {
  obs::Span span("cooper.reconstruct", "core");
  COOPER_ASSIGN_OR_RETURN(pc::PointCloud remote_cloud, DecodePackage(package));
  // Densify while still in the sender's sensor frame — the spherical
  // projection is only meaningful from the originating viewpoint.
  remote_cloud = detector_.Densify(remote_cloud);
  remote_cloud.Transform(ReceiverFromSender(local_nav, package.nav));
  return remote_cloud;
}

Result<pc::PointCloud> CooperPipeline::FuseLane(
    const NavMetadata& local_nav, const ExchangePackage& package,
    const pc::PointCloud& icp_target, pc::IcpScratch* scratch) const {
  if (package.level == feat::ExchangeLevel::kVoxelFeatures) {
    COOPER_ASSIGN_OR_RETURN(const feat::FeatureMap map,
                            DecodeFeatures(package));
    return feat::AlignToGrid(
               map, ReceiverFromSender(local_nav, package.nav),
               feat::GridSpec::FromVoxelConfig(config_.detector.voxel))
        .pseudo;
  }
  COOPER_ASSIGN_OR_RETURN(pc::PointCloud remote,
                          ReconstructRemoteCloud(local_nav, package));
  if (!config_.icp_refinement) return remote;
  obs::Span icp_span("cooper.icp", "core");
  return RefineAlignment(std::move(remote), icp_target, scratch);
}

CooperOutput CooperPipeline::MergeAndDetect(
    const pc::PointCloud& local_cloud,
    const std::vector<const pc::PointCloud*>& lanes,
    std::string_view merge_span) const {
  CooperOutput out;
  {
    obs::Span span(merge_span, "core");
    out.fused_cloud = detector_.Densify(local_cloud);  // local viewpoint
    for (const pc::PointCloud* lane : lanes) {
      out.transmitter_points += lane->size();
      out.fused_cloud.Merge(*lane);  // Eq. 2: union in the receiver frame
    }
  }
  out.fused = detector_.DetectPreprocessed(out.fused_cloud);
  return out;
}

Result<CooperOutput> CooperPipeline::DetectCooperative(
    const pc::PointCloud& local_cloud, const NavMetadata& local_nav,
    const ExchangePackage& package) const {
  obs::Span span("cooper.detect_cooperative", "core");
  COOPER_COUNT("cooper.cooperative_detections");
  COOPER_ASSIGN_OR_RETURN(
      const pc::PointCloud remote,
      FuseLane(local_nav, package, IcpTarget(local_cloud), &icp_scratch_));
  return MergeAndDetect(local_cloud, {&remote}, "cooper.merge");
}

}  // namespace cooper::core
