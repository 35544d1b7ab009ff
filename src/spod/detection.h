// Detection output type and SPOD configuration.
#pragma once

#include <vector>

#include "geom/box.h"
#include "pointcloud/spherical_projection.h"
#include "pointcloud/voxel_grid.h"

namespace cooper::spod {

/// Detection classes (the paper's target set: cars, pedestrians, cyclists).
enum class ObjectClass { kCar, kPedestrian, kCyclist };

const char* ObjectClassName(ObjectClass cls);

struct Detection {
  geom::Box3 box;          // sensor/receiver frame
  double score = 0.0;      // detection confidence in [0, 1]
  ObjectClass cls = ObjectClass::kCar;
  std::size_t num_points = 0;  // supporting points
};

/// Per-class geometry prior: gates on the fitted cluster extents, the
/// minimum completed box, the silhouette used for expected-return counts,
/// and the minimum believable height profile.
struct ClassTemplate {
  ObjectClass cls = ObjectClass::kCar;
  // Plausible *fitted* cluster extents (partial views allowed below minima).
  double max_fit_length = 6.5;
  double max_fit_width = 3.2;
  // Completion minima (full-object extents the box grows to).
  double complete_length = 3.6;
  double complete_width = 1.55;
  double complete_height = 1.35;
  // Silhouette height for expected-return counts at range.
  double silhouette_height = 1.5;
  // Below this observed height extent the confidence is damped.
  double min_height_extent = 0.5;
};

/// The three standard templates, cars first.
const std::vector<ClassTemplate>& StandardTemplates();

/// Template lookup by class.
const ClassTemplate& TemplateFor(ObjectClass cls);

/// Angular resolution of the producing sensor — SPOD needs it to judge how
/// many returns an unoccluded object *should* have produced at a range
/// ("insufficient input features" is what breaks CNN detectors on sparse
/// clouds, §III-B; SPOD normalises evidence by expected density instead).
struct SensorResolution {
  double azimuth_res_rad = 2.0 * 3.141592653589793 / 1024.0;
  double elevation_res_rad = 0.0082;  // HDL-64-ish
  /// Beam count only matters through elevation_res; kept for diagnostics.
  int beams = 64;
};

struct SpodConfig {
  pc::VoxelGridConfig voxel;               // detection range + voxel size
  pc::SphericalProjectionConfig spherical; // preprocessing projection
  bool densify_sparse_input = true;        // run Densify() for low-beam data
  double ground_margin = 0.30;             // metres above ground to cut
  double score_threshold = 0.50;           // below => missed ("X" in Fig. 3/6)
  double nms_iou = 0.1;                    // BEV IoU suppression
  std::size_t min_cluster_points = 5;
  double cluster_merge_radius = 0.9;       // metres, BEV connected components
  // Plausible car extents (after box fit) used to reject clutter.
  double min_length = 1.0, max_length = 6.5;
  double min_width = 0.6, max_width = 3.2;
  // Threads for the sender-side feature tap's voxel grid (ExtractFeatureMap;
  // <= 0: hardware concurrency, 1: serial).  Detection itself is serial.
  // Feature maps are bit-identical for every thread count — see DESIGN.md
  // "Threading model".
  int num_threads = 1;
};

/// Default config for dense 64-beam input over a KITTI-style front range.
SpodConfig MakeDenseSpodConfig();

/// Config tuned for sparse 16-beam input (T&J-style).
SpodConfig MakeSparseSpodConfig();

}  // namespace cooper::spod
