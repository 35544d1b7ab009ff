// Voxelisation of point clouds — the grouping step feeding SPOD's voxel
// feature extractor (Fig. 1) and its per-frame occupied-voxel count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "pointcloud/point_cloud.h"

namespace cooper::pc {

/// Integer voxel coordinate.
struct VoxelCoord {
  std::int32_t x = 0;
  std::int32_t y = 0;
  std::int32_t z = 0;
  friend bool operator==(const VoxelCoord&, const VoxelCoord&) = default;
};

/// 64-bit mix of the three coordinates (SplitMix64-style finalisers over the
/// packed words).  The voxel-grid, feature-map and clustering maps are
/// power-of-two `common::FlatMap`s that index with the *low* hash bits, so
/// every input bit must diffuse into them — the old FNV-style fold left
/// neighbouring coordinates in neighbouring buckets and degraded linear
/// probing into long runs.
struct VoxelCoordHash {
  std::size_t operator()(const VoxelCoord& c) const {
    std::uint64_t h =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x)) << 32) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.y));
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.z));
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

struct VoxelGridConfig {
  geom::Vec3 min_bound{0.0, -40.0, -3.0};   // detection range (KITTI-style)
  geom::Vec3 max_bound{70.4, 40.0, 1.0};
  geom::Vec3 voxel_size{0.2, 0.2, 0.4};
  std::size_t max_points_per_voxel = 35;    // VoxelNet-style cap
  // Threads for voxel assignment and Downsample (<= 0: hardware concurrency,
  // 1: serial).  Voxel order and per-voxel point order are identical for
  // every thread count (chunked grouping merged in chunk order).
  int num_threads = 1;
};

/// One occupied voxel: its grid coordinate and the indices of its points.
struct Voxel {
  VoxelCoord coord;
  std::vector<std::uint32_t> point_indices;
};

/// Reusable working set for VoxelGrid construction.  The parallel grouping
/// phase shards the cloud into chunk-local grids; with a scratch the shard
/// maps and voxel slots (including their `point_indices` capacity) survive
/// across frames, cleared — not freed — between builds, so steady-state
/// frames allocate near zero.  A scratch may be shared by successive builds
/// but not by concurrent ones.
struct VoxelGridScratch {
  struct Shard {
    std::vector<Voxel> voxels;  // recycled slots; only the first `used` are live
    std::size_t used = 0;
    common::FlatMap<VoxelCoord, std::uint32_t, VoxelCoordHash> index;
  };
  std::vector<Shard> shards;
};

/// Number of distinct voxels `cloud`'s in-bounds points occupy under
/// `config`: `VoxelGrid(cloud, config).voxels().size()` without the grid
/// (the per-voxel cap never drops a voxel), serial and frame-local.
std::size_t CountOccupiedVoxels(const PointCloud& cloud,
                                const VoxelGridConfig& config);

class VoxelGrid {
 public:
  /// Builds the set of occupied voxels for `cloud` under `config`. Points
  /// outside the bounds are ignored; each voxel keeps at most
  /// `max_points_per_voxel` points (first-come, deterministic order).
  /// `scratch` (optional) provides reusable shard storage for the parallel
  /// grouping phase; the result is bit-identical with or without it.
  VoxelGrid(const PointCloud& cloud, const VoxelGridConfig& config,
            VoxelGridScratch* scratch = nullptr);

  const std::vector<Voxel>& voxels() const { return voxels_; }
  const VoxelGridConfig& config() const { return config_; }

  /// Grid dimensions (number of voxels per axis).
  VoxelCoord GridShape() const;

  /// Center of a voxel in metric coordinates.
  geom::Vec3 VoxelCenter(const VoxelCoord& c) const;

  /// Voxel containing a metric point, or nullptr if empty/out of bounds.
  const Voxel* Find(const geom::Vec3& p) const;

  /// Fraction of grid cells that are occupied (sparsity measure).
  double Occupancy() const;

  /// One representative point per occupied voxel (centroid) — voxel
  /// downsampling for transmission/visualisation.
  PointCloud Downsample(const PointCloud& cloud) const;

 private:
  VoxelGridConfig config_;
  std::vector<Voxel> voxels_;
  common::FlatMap<VoxelCoord, std::uint32_t, VoxelCoordHash> index_;
};

}  // namespace cooper::pc
