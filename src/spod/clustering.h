// Cluster extraction and oriented-box fitting for SPOD's proposal stage.
//
// Points above the ground plane are grouped into connected components in
// the BEV plane; each component's points are fitted with a minimum-area
// oriented rectangle (yaw search), producing the box proposals the
// confidence model scores.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "geom/box.h"
#include "pointcloud/point_cloud.h"
#include "pointcloud/voxel_grid.h"

namespace cooper::spod {

struct Cluster {
  pc::PointCloud points;
};

/// BEV bounds of the points in one clustering cell.
struct CellBounds {
  double xmin, xmax, ymin, ymax;
};

/// Reusable working set for ClusterPoints: the BEV cell index (a FlatMap
/// keyed on `pc::VoxelCoord` with z = 0), the first-appearance cell list,
/// per-cell point bounds and chained per-cell point lists, and union-find
/// storage.  Everything is cleared — not freed — between calls, so
/// steady-state frames allocate near zero.  A scratch may be shared by
/// successive calls but not by concurrent ones.
struct ClusterScratch {
  common::FlatMap<pc::VoxelCoord, std::uint32_t, pc::VoxelCoordHash> grid;
  std::vector<pc::VoxelCoord> cell_keys;   // first-appearance order
  std::vector<CellBounds> cell_bounds;     // BEV bounds of each cell's points
  std::vector<std::uint32_t> cell_head;    // head of each cell's point chain
  std::vector<std::uint32_t> point_next;   // next point in the same cell
  std::vector<std::uint32_t> parent;       // union-find
  std::vector<std::uint32_t> root_slot;    // root point index -> cluster slot
};

/// Groups points into the connected components of the inclusive BEV edge
/// set `dx² + dy² <= merge_radius²`; components smaller than `min_points`
/// are discarded.  Points are hashed into square cells of side
/// `merge_radius/√2` (shrunk by 1e-6 so rounding in the cell index cannot
/// widen a cell): any two points in one cell are within the radius, so each
/// cell is one union, and any two points within the radius are at most two
/// cells apart per axis, so one serial sweep over each pair of occupied
/// cells in a 5×5 neighbourhood finds every component.  A cell pair is
/// skipped when the two cells already share a root or their point bounds
/// are farther apart than the radius; otherwise only the points of each
/// cell within the radius of the other cell's bounds are paired, up to the
/// first pair within the radius.  Work grows with occupied cells, not with
/// point pairs.
/// The output order is canonical (clusters sorted by first point, points in
/// input order), so it does not depend on union order.  `scratch`
/// (optional) provides reusable working storage; identical output with or
/// without it.
std::vector<Cluster> ClusterPoints(const pc::PointCloud& cloud,
                                   double merge_radius,
                                   std::size_t min_points,
                                   ClusterScratch* scratch = nullptr);

/// The earlier signature with a thread count, kept so existing callers still
/// compile.  Clustering is serial; `num_threads` is ignored.
inline std::vector<Cluster> ClusterPoints(const pc::PointCloud& cloud,
                                          double merge_radius,
                                          std::size_t min_points,
                                          int /*num_threads*/,
                                          ClusterScratch* scratch) {
  return ClusterPoints(cloud, merge_radius, min_points, scratch);
}

/// O(n²) reference for ClusterPoints: unions every point pair within the
/// radius, with the same output order.  Tests and `bench_micro_kernels
/// --smoke` compare the cell sweep against it.
std::vector<Cluster> ClusterPointsAllPairs(const pc::PointCloud& cloud,
                                           double merge_radius,
                                           std::size_t min_points);

/// Minimum-area oriented bounding box of a cluster: yaw is searched over
/// [0, 90) degrees in 2-degree steps (the rectangle is symmetric beyond
/// that), extents come from the rotated axis-aligned bounds — all 45 yaws
/// in one `common::simd` rotated_bounds call — and height from the z
/// extent.  The first step with the smallest area wins.
geom::Box3 FitOrientedBox(const pc::PointCloud& cluster);

/// True when two of the cluster's axis-extreme points (its first points at
/// min x, max x, min y and max y) are farther apart than
/// `sqrt(max_length² + max_width²) + 1e-6`.  Any box containing both points
/// has a diagonal at least that long, so FitOrientedBox(cluster) then
/// exceeds `max_length` or `max_width` (the 1e-6 absorbs the fit's
/// rounding), without fitting it.
bool WiderThanBox(const pc::PointCloud& cluster, double max_length,
                  double max_width);

}  // namespace cooper::spod
