// Receiver-path layer probe (traced runs only).
//
// `CooperativeSession::DetectCooperative` is one call; its layers cannot be
// timed from outside it.  The probe therefore replays one fusion's inputs
// through the public function of each layer in turn, under its own span,
// outside the timed frame.  Its final detector call must reproduce the
// session's detection digest, which the caller checks.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bench.h"
#include "core/exchange.h"
#include "feat/fusion.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "pointcloud/voxel_grid.h"
#include "replay/trace.h"
#include "spod/clustering.h"

namespace perfbench {

using namespace cooper;

namespace {

// Most above-ground points in one BEV cell whose side is the merge radius:
// the per-cell traffic the clustering sweep pays for.
std::size_t MaxCellPoints(const pc::PointCloud& above, double cell) {
  std::unordered_map<std::uint64_t, std::size_t> counts;
  std::size_t best = 0;
  for (const pc::Point& p : above) {
    const auto ix = static_cast<std::int64_t>(std::floor(p.position.x / cell));
    const auto iy = static_cast<std::int64_t>(std::floor(p.position.y / cell));
    const std::uint64_t key = (static_cast<std::uint64_t>(ix) << 32) ^
                              static_cast<std::uint32_t>(iy);
    best = std::max(best, ++counts[key]);
  }
  return best;
}

// The detector's stages as separate public calls on the fused cloud, in the
// order SpodDetector runs them.  The head is what `detect_ms` costs beyond
// preprocess, voxelize, cluster and split.  Like the detector, the calls
// reuse their working storage across frames (the probe runs on one thread).
void ProbeDetectorStages(const spod::SpodConfig& config,
                         const pc::PointCloud& fused, double detect_ms,
                         Tracer* tracer) {
  static pc::VoxelGridScratch voxel_scratch;
  static spod::ClusterScratch cluster_scratch;
  const auto t0 = Clock::now();
  pc::PointCloud cloud = fused;
  cloud.RemoveInvalid();
  const double ground_z = pc::EstimateGroundZ(cloud);
  const pc::PointCloud above = cloud.FilterMinZ(ground_z + config.ground_margin);
  const auto t1 = Clock::now();
  tracer->Record("spod.preprocess_ms", t0, t1);

  pc::VoxelGridConfig voxel_cfg = config.voxel;
  voxel_cfg.num_threads = config.num_threads;
  std::size_t voxels = 0;
  {
    const pc::VoxelGrid grid(above, voxel_cfg, &voxel_scratch);
    voxels = grid.voxels().size();
  }
  const auto t2 = Clock::now();
  tracer->Record("pointcloud.voxelize_ms", t1, t2);

  std::vector<spod::Cluster> clusters =
      spod::ClusterPoints(above, config.cluster_merge_radius,
                          config.min_cluster_points, config.num_threads,
                          &cluster_scratch);
  const auto t3 = Clock::now();
  tracer->Record("spod.cluster_ms", t2, t3);

  // Oversized clusters are re-split at 0.55 r, as the detector does.
  std::size_t parts = 0;
  for (const spod::Cluster& cluster : clusters) {
    const geom::Box3 box = spod::FitOrientedBox(cluster.points);
    if (box.length > config.max_length || box.width > config.max_width) {
      parts += spod::ClusterPoints(cluster.points,
                                   0.55 * config.cluster_merge_radius,
                                   config.min_cluster_points,
                                   config.num_threads, &cluster_scratch)
                   .size();
    } else {
      ++parts;
    }
  }
  const auto t4 = Clock::now();
  tracer->Record("spod.split_ms", t3, t4);

  tracer->Value("spod.head_ms",
                std::max(0.0, detect_ms - MsBetween(t0, t4)));
  tracer->Value("spod.above_ground_points", static_cast<double>(above.size()));
  tracer->Value("spod.voxels", static_cast<double>(voxels));
  tracer->Value("spod.clusters", static_cast<double>(parts));
  tracer->Value("spod.max_cell_points",
                static_cast<double>(
                    MaxCellPoints(above, config.cluster_merge_radius)));
}

}  // namespace

std::uint64_t ProbeReceiverPath(
    const core::CooperPipeline& pipeline, const pc::PointCloud& local_cloud,
    const core::NavMetadata& local_nav,
    const std::vector<std::vector<std::vector<std::uint8_t>>>& packages,
    Tracer* tracer) {
  const spod::SpodDetector& detector = pipeline.detector();
  const feat::GridSpec ego_grid =
      feat::GridSpec::FromVoxelConfig(pipeline.config().detector.voxel);

  std::vector<pc::PointCloud> remotes;
  std::vector<feat::FeatureMap> maps;
  for (const auto& frames : packages) {
    std::vector<std::uint8_t> bytes;
    {
      Span span(tracer, "net.reassemble_ms");
      net::Reassembler reassembler(pipeline.config().transport);
      for (const auto& frame : frames) {
        net::Reassembler::Event event = reassembler.Offer(frame, 0.0);
        if (event.kind == net::Reassembler::Event::Kind::kPackageComplete) {
          bytes = std::move(event.package);
        }
      }
    }
    if (bytes.empty()) continue;
    Result<core::ExchangePackage> package = [&] {
      Span span(tracer, "net.deserialize_ms");
      return net::DeserializePackage(bytes);
    }();
    if (!package.ok()) continue;
    const geom::Pose ego_from_sender =
        core::CooperPipeline::ReceiverFromSender(local_nav, package->nav);
    if (package->level == feat::ExchangeLevel::kVoxelFeatures) {
      Result<feat::FeatureMap> map = [&] {
        Span span(tracer, "core.decode_ms");
        return core::DecodeFeatures(*package);
      }();
      if (!map.ok()) continue;
      Span span(tracer, "feat.align_ms");
      feat::AlignedFeatures aligned =
          feat::AlignToGrid(*map, ego_from_sender, ego_grid);
      remotes.push_back(std::move(aligned.pseudo));
      maps.push_back(std::move(aligned.map));
      continue;
    }
    Result<pc::PointCloud> decoded = [&] {
      Span span(tracer, "core.decode_ms");
      return core::DecodePackage(*package);
    }();
    if (!decoded.ok()) continue;
    {
      Span span(tracer, "spod.densify_ms");
      (void)detector.Densify(*decoded);
    }
    Span span(tracer, "core.reconstruct_ms");
    Result<pc::PointCloud> remote =
        pipeline.ReconstructRemoteCloud(local_nav, *package);
    if (remote.ok()) remotes.push_back(std::move(*remote));
  }

  pc::PointCloud fused;
  {
    Span span(tracer, "spod.densify_ms");
    fused = detector.Densify(local_cloud);
  }
  {
    Span span(tracer, "pointcloud.merge_ms");
    for (const pc::PointCloud& remote : remotes) fused.Merge(remote);
  }

  std::vector<const feat::FeatureMap*> map_ptrs;
  for (const feat::FeatureMap& map : maps) map_ptrs.push_back(&map);
  const auto d0 = Clock::now();
  const spod::SpodResult result =
      map_ptrs.empty() ? detector.DetectPreprocessed(fused)
                       : detector.DetectWithFeatures(fused, map_ptrs);
  const auto d1 = Clock::now();
  tracer->Record("spod.detect_ms", d0, d1);
  tracer->Value("spod.input_points", static_cast<double>(fused.size()));
  tracer->Value("spod.detections",
                static_cast<double>(result.detections.size()));

  ProbeDetectorStages(detector.config(), fused, MsBetween(d0, d1), tracer);
  return replay::DigestDetections(result.detections);
}

}  // namespace perfbench
