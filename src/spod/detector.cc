#include "spod/detector.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "spod/clustering.h"

namespace cooper::spod {
namespace {

// Deterministic per-object score jitter in [-amp, amp]: stands in for the
// residual per-instance variation a trained network exhibits (pose, paint,
// partial reflections) so score tables show the paper's natural spread.
double ScoreJitter(const geom::Vec3& center, double amp) {
  const std::int64_t qx = static_cast<std::int64_t>(std::floor(center.x / 1.5));
  const std::int64_t qy = static_cast<std::int64_t>(std::floor(center.y / 1.5));
  std::uint64_t h = static_cast<std::uint64_t>(qx) * 0x9e3779b97f4a7c15ull ^
                    static_cast<std::uint64_t>(qy) * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 31;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 29;
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return amp * (2.0 * u - 1.0);
}

// Grows a partial-view box to the class's plausible extents, pushing the
// added volume away from the sensor (the unseen far side of the object).
geom::Box3 CompleteBox(const geom::Box3& fitted, const ClassTemplate& tmpl) {
  const double kMinLength = tmpl.complete_length;
  const double kMinWidth = tmpl.complete_width;
  const double kMinHeight = tmpl.complete_height;
  geom::Box3 box = fitted;
  const geom::Vec3 view{box.center.x, box.center.y, 0.0};
  const geom::Vec3 u = view.Norm() > 1e-9 ? view.Normalized() : geom::Vec3{1, 0, 0};
  const geom::Vec3 ax{std::cos(box.yaw), std::sin(box.yaw), 0.0};
  const geom::Vec3 ay{-std::sin(box.yaw), std::cos(box.yaw), 0.0};
  if (box.length < kMinLength) {
    const double grow = kMinLength - box.length;
    const double dir = ax.Dot(u) >= 0.0 ? 1.0 : -1.0;
    box.center += ax * (dir * 0.5 * grow);
    box.length = kMinLength;
  }
  if (box.width < kMinWidth) {
    const double grow = kMinWidth - box.width;
    const double dir = ay.Dot(u) >= 0.0 ? 1.0 : -1.0;
    box.center += ay * (dir * 0.5 * grow);
    box.width = kMinWidth;
  }
  if (box.height < kMinHeight) {
    box.center.z += 0.5 * (kMinHeight - box.height);
    box.height = kMinHeight;
  }
  return box;
}

}  // namespace

SensorResolution MakeSensorResolution(int beams, double fov_up_deg,
                                      double fov_down_deg, int azimuth_steps) {
  SensorResolution s;
  s.beams = beams;
  s.azimuth_res_rad = 2.0 * 3.141592653589793 / azimuth_steps;
  s.elevation_res_rad =
      geom::DegToRad(fov_up_deg - fov_down_deg) / std::max(1, beams - 1);
  return s;
}

SpodConfig MakeDenseSpodConfig() {
  SpodConfig c;
  c.voxel.min_bound = {-70.0, -50.0, -3.0};
  c.voxel.max_bound = {70.0, 50.0, 2.0};
  c.voxel.voxel_size = {0.2, 0.2, 0.5};
  c.spherical.rows = 64;
  c.spherical.fov_up_deg = 2.0;
  c.spherical.fov_down_deg = -24.8;
  c.densify_sparse_input = false;
  return c;
}

SpodConfig MakeSparseSpodConfig() {
  SpodConfig c = MakeDenseSpodConfig();
  c.voxel.voxel_size = {0.25, 0.25, 0.5};
  c.spherical.rows = 32;  // projection rows for 16-beam data (densified)
  c.spherical.cols = 1800;  // must cover the sensor's azimuth resolution, or
                            // projection collapses neighbouring returns
  c.spherical.fov_up_deg = 15.0;
  c.spherical.fov_down_deg = -15.0;
  c.densify_sparse_input = true;
  c.min_cluster_points = 4;
  c.cluster_merge_radius = 1.1;
  return c;
}

SpodDetector::Net SpodDetector::MakeNet(std::uint64_t seed) {
  Rng rng(seed);
  return Net{nn::VoxelFeatureEncoder(8, rng)};
}

SpodDetector::SpodDetector(const SpodConfig& config,
                           const SensorResolution& sensor,
                           std::uint64_t weight_seed)
    : config_(config), sensor_(sensor), net_(MakeNet(weight_seed)) {}

pc::PointCloud SpodDetector::Densify(const pc::PointCloud& cloud) const {
  if (!config_.densify_sparse_input) return cloud;
  obs::Span span("spod.densify", "spod");
  pc::RangeImage image(config_.spherical);
  image.Project(cloud);
  image.Densify(1);
  return image.ToPointCloud();
}

SpodResult SpodDetector::Detect(const pc::PointCloud& input) const {
  if (!config_.densify_sparse_input) return DetectPreprocessed(input);
  obs::Span span("spod.detect", "spod");
  SpodResult result = RunStages(Densify(input));
  result.num_input_points = input.size();
  return result;
}

feat::FeatureMap SpodDetector::ExtractFeatureMap(
    const pc::PointCloud& input) const {
  obs::Span span("spod.extract_features", "spod");
  const pc::PointCloud above =
      pc::AboveGround(Densify(input), config_.ground_margin);

  pc::VoxelGridConfig voxel_cfg = config_.voxel;
  voxel_cfg.num_threads = config_.num_threads;
  pc::VoxelGrid grid(above, voxel_cfg, &scratch_.voxel_grid);

  feat::FeatureMap map;
  map.tensor = net_.vfe.Encode(above, grid);
  map.origin = voxel_cfg.min_bound;
  map.voxel_size = voxel_cfg.voxel_size;
  COOPER_COUNT_N("spod.feature_sites_extracted", map.num_active());
  return map;
}

SpodResult SpodDetector::DetectPreprocessed(const pc::PointCloud& input) const {
  obs::Span span("spod.detect", "spod");
  return RunStages(input);
}

SpodResult SpodDetector::RunStages(const pc::PointCloud& input) const {
  SpodResult result;
  result.num_input_points = input.size();
  COOPER_COUNT_N("spod.input_points", input.size());
  PipelineScratch& sc = scratch_;

  // --- Stage 1: preprocessing (invalid-point removal, ground cut). ---
  std::optional<obs::Span> stage(std::in_place, "spod.preprocess", "spod");
  const pc::PointCloud above = pc::AboveGround(input, config_.ground_margin);

  // --- Stage 2: BEV clustering. ---
  stage.emplace("spod.cluster", "spod");
  auto clusters = ClusterPoints(above, config_.cluster_merge_radius,
                                config_.min_cluster_points, &sc.cluster);

  // --- Stage 3: proposals (split, score, pair), NMS. ---
  stage.emplace("spod.proposals", "spod");
  auto score_cluster = [this](const pc::PointCloud& points,
                              const geom::Box3& fitted,
                              Detection* out) -> bool {
    // Reject anything larger than every template (walls, buildings, merged
    // rows of cars).
    if (fitted.length > config_.max_length || fitted.width > config_.max_width) {
      return false;
    }
    // Classify by the best-scoring class template whose fit gate admits the
    // cluster: each template completes the box to its own full extents and
    // normalises evidence by its own silhouette.
    bool any = false;
    double best_raw = 0.0;
    for (const auto& tmpl : StandardTemplates()) {
      if (fitted.length > tmpl.max_fit_length ||
          fitted.width > tmpl.max_fit_width) {
        continue;
      }
      const geom::Box3 box = CompleteBox(fitted, tmpl);
      const EvidenceFeatures ev = ComputeEvidence(
          points, box.Expanded(0.2), sensor_, tmpl.silhouette_height);
      const double raw = ScoreFromEvidence(ev, tmpl);
      // A partially visible car is size-compatible with the smaller classes;
      // require a clear margin before preferring them over the earlier
      // (more common, larger-gate) template — the standard class prior.
      if (!any || raw > best_raw + 0.08) {
        out->box = box;
        best_raw = raw;
        out->cls = tmpl.cls;
        out->num_points = points.size();
        any = true;
      }
    }
    if (any) {
      // Per-instance jitter applies once, to the selected class, so it
      // cannot flip the classification itself.
      out->score = std::clamp(
          best_raw * (1.0 + ScoreJitter(out->box.center, 0.05)), 0.0, 0.99);
    }
    return any;
  };

  // Candidate buffers live in the scratch so their top-level capacity
  // carries across frames (the per-candidate point storage is rebuilt).
  std::vector<DetectorCandidate>& candidates = sc.candidates;
  candidates.clear();
  const auto propose = [&](pc::PointCloud& points, const geom::Box3& fitted) {
    DetectorCandidate c;
    if (!score_cluster(points, fitted, &c.det)) return;
    c.points = std::move(points);
    candidates.push_back(std::move(c));
  };
  // Oversized clusters are usually several objects bridged by stray returns
  // (a car parked against a truck); split them once at a tighter radius so
  // the parts get their own proposals instead of a blanket rejection.  Each
  // cluster is fitted once: a cluster that stays whole is scored with its
  // probe box, each part of a split one with its own fit.  A cluster wider
  // than the largest box's diagonal is oversized without a probe fit.
  for (auto& cluster : clusters) {
    geom::Box3 probe;
    bool oversized =
        WiderThanBox(cluster.points, config_.max_length, config_.max_width);
    if (!oversized) {
      probe = FitOrientedBox(cluster.points);
      oversized =
          probe.length > config_.max_length || probe.width > config_.max_width;
    }
    if (oversized) {
      auto parts = ClusterPoints(cluster.points,
                                 0.55 * config_.cluster_merge_radius,
                                 config_.min_cluster_points, &sc.cluster);
      for (auto& part : parts) {
        const geom::Box3 fitted = FitOrientedBox(part.points);
        propose(part.points, fitted);
      }
    } else {
      propose(cluster.points, probe);
    }
  }

  // Opposite-face pairing.  A fused two-viewpoint cloud sees a car as two
  // parallel point walls ~1.8 m apart; each completes into a box pushed away
  // from the sensor, so the boxes need not overlap.  Merge candidate pairs
  // whose centers are close enough to be one object when the joint refit is
  // at least as confident — this is where cross-viewpoint evidence combines.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size();) {
      if (geom::BevCenterDistance(candidates[i].det.box,
                                  candidates[j].det.box) > 2.5) {
        ++j;
        continue;
      }
      pc::PointCloud merged = candidates[i].points;
      merged.Merge(candidates[j].points);
      Detection refit;
      const double best = std::max(candidates[i].det.score,
                                   candidates[j].det.score);
      if (score_cluster(merged, FitOrientedBox(merged), &refit) &&
          refit.score >= best - 0.02) {
        candidates[i].points = std::move(merged);
        candidates[i].det = refit;
        candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(j));
      } else {
        ++j;
      }
    }
  }

  // Greedy NMS by descending score.  A fused cloud sees an object from both
  // sides, which clusters as two parallel point walls; instead of discarding
  // the weaker wall, its points are merged into the keeper and the keeper is
  // refitted — this is where cooperative evidence actually combines.
  std::sort(candidates.begin(), candidates.end(),
            [](const DetectorCandidate& a, const DetectorCandidate& b) {
              return a.det.score > b.det.score;
            });
  std::vector<DetectorCandidate>& kept = sc.kept;
  kept.clear();
  for (auto& c : candidates) {
    DetectorCandidate* overlaps = nullptr;
    for (auto& k : kept) {
      if (geom::BevIou(c.det.box, k.det.box) > config_.nms_iou) {
        overlaps = &k;
        break;
      }
    }
    if (overlaps == nullptr) {
      kept.push_back(std::move(c));
      continue;
    }
    overlaps->points.Merge(c.points);
    Detection refit;
    if (score_cluster(overlaps->points, FitOrientedBox(overlaps->points),
                      &refit) &&
        refit.score >= overlaps->det.score) {
      overlaps->det = refit;
    } else {
      overlaps->det.num_points = overlaps->points.size();
    }
  }
  // Thresholding happens at evaluation time so callers can inspect weak
  // detections ("X" cells need the sub-threshold score to exist); keep all.
  result.detections.reserve(kept.size());
  for (auto& k : kept) result.detections.push_back(k.det);
  stage.reset();
  COOPER_COUNT_N("spod.detections", result.detections.size());
  return result;
}

}  // namespace cooper::spod
