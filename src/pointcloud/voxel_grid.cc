#include "pointcloud/voxel_grid.h"

#include <cmath>
#include <optional>

#include "common/thread_pool.h"

namespace cooper::pc {
namespace {

// Voxel coordinate of `p`, or nullopt when outside the grid bounds.
std::optional<VoxelCoord> CoordOf(const geom::Vec3& p,
                                  const VoxelGridConfig& config) {
  if (p.x < config.min_bound.x || p.x >= config.max_bound.x ||
      p.y < config.min_bound.y || p.y >= config.max_bound.y ||
      p.z < config.min_bound.z || p.z >= config.max_bound.z) {
    return std::nullopt;
  }
  return VoxelCoord{
      static_cast<std::int32_t>(std::floor((p.x - config.min_bound.x) / config.voxel_size.x)),
      static_cast<std::int32_t>(std::floor((p.y - config.min_bound.y) / config.voxel_size.y)),
      static_cast<std::int32_t>(std::floor((p.z - config.min_bound.z) / config.voxel_size.z))};
}

// Reuses a shard voxel slot if one is free (keeping its point_indices
// capacity alive across frames), appending otherwise.
Voxel& AcquireShardVoxel(VoxelGridScratch::Shard& shard, const VoxelCoord& c) {
  if (shard.used < shard.voxels.size()) {
    Voxel& v = shard.voxels[shard.used++];
    v.coord = c;
    v.point_indices.clear();
    return v;
  }
  ++shard.used;
  return shard.voxels.emplace_back(Voxel{c, {}});
}

}  // namespace

std::size_t CountOccupiedVoxels(const PointCloud& cloud,
                                const VoxelGridConfig& config) {
  struct Empty {};
  common::FlatMap<VoxelCoord, Empty, VoxelCoordHash> occupied;
  occupied.Reserve(cloud.size() / 4 + 16);
  // Scan-ordered clouds put runs of points in one voxel; a run costs one
  // hash probe.
  std::optional<VoxelCoord> previous;
  for (const auto& p : cloud) {
    const auto c = CoordOf(p.position, config);
    if (!c || c == previous) continue;
    occupied.TryEmplace(*c);
    previous = c;
  }
  return occupied.size();
}

VoxelGrid::VoxelGrid(const PointCloud& cloud, const VoxelGridConfig& config,
                     VoxelGridScratch* scratch)
    : config_(config) {
  const std::size_t n = cloud.size();
  index_.Reserve(n / 4 + 16);

  // Serial fast path: group straight into the final grid — no shards, no
  // merge copies.  The chunked parallel build below merges shards in chunk
  // order, which reproduces exactly this single pass, so the two paths are
  // interchangeable at any thread count.
  if (common::ResolveThreads(config_.num_threads) == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = CoordOf(cloud[i].position, config_);
      if (!c) continue;
      auto [slot, inserted] =
          index_.TryEmplace(*c, static_cast<std::uint32_t>(voxels_.size()));
      if (inserted) voxels_.push_back(Voxel{*c, {}});
      auto& voxel = voxels_[*slot];
      if (voxel.point_indices.size() < config_.max_points_per_voxel) {
        voxel.point_indices.push_back(static_cast<std::uint32_t>(i));
      }
    }
    return;
  }

  // Parallel phase: group each chunk of points into chunk-local shards.
  // With a scratch the shard maps and voxel slots are reused across frames
  // (cleared, not freed); without one a frame-local scratch stands in.
  constexpr std::size_t kGrain = 8192;
  VoxelGridScratch local;
  VoxelGridScratch& sc = scratch ? *scratch : local;
  const std::size_t num_shards = (n + kGrain - 1) / kGrain;
  if (sc.shards.size() < num_shards) sc.shards.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    sc.shards[s].used = 0;
    sc.shards[s].index.Clear();
  }
  common::ParallelFor(
      config_.num_threads, 0, n, kGrain,
      [&](std::size_t lo, std::size_t hi) {
        VoxelGridScratch::Shard& shard = sc.shards[lo / kGrain];
        for (std::size_t i = lo; i < hi; ++i) {
          const auto c = CoordOf(cloud[i].position, config_);
          if (!c) continue;
          auto [slot, inserted] = shard.index.TryEmplace(
              *c, static_cast<std::uint32_t>(shard.used));
          if (inserted) AcquireShardVoxel(shard, *c);
          auto& voxel = shard.voxels[*slot];
          if (voxel.point_indices.size() < config_.max_points_per_voxel) {
            voxel.point_indices.push_back(static_cast<std::uint32_t>(i));
          }
        }
      });

  // Serial merge in chunk order.  Voxels appear in first-appearance order
  // over the chunk-ordered traversal, and per-voxel indices concatenate in
  // ascending point order — both identical to a serial single pass.  Shard
  // voxels are copied (not moved) so the scratch keeps its capacity.
  for (std::size_t s = 0; s < num_shards; ++s) {
    const VoxelGridScratch::Shard& shard = sc.shards[s];
    for (std::size_t k = 0; k < shard.used; ++k) {
      const Voxel& lv = shard.voxels[k];
      auto [slot, inserted] =
          index_.TryEmplace(lv.coord, static_cast<std::uint32_t>(voxels_.size()));
      if (inserted) {
        voxels_.push_back(lv);
        continue;
      }
      auto& voxel = voxels_[*slot];
      for (const auto idx : lv.point_indices) {
        if (voxel.point_indices.size() < config_.max_points_per_voxel) {
          voxel.point_indices.push_back(idx);
        }
      }
    }
  }
}

VoxelCoord VoxelGrid::GridShape() const {
  auto cells = [](double lo, double hi, double step) {
    return static_cast<std::int32_t>(std::ceil((hi - lo) / step));
  };
  return {cells(config_.min_bound.x, config_.max_bound.x, config_.voxel_size.x),
          cells(config_.min_bound.y, config_.max_bound.y, config_.voxel_size.y),
          cells(config_.min_bound.z, config_.max_bound.z, config_.voxel_size.z)};
}

geom::Vec3 VoxelGrid::VoxelCenter(const VoxelCoord& c) const {
  return {config_.min_bound.x + (c.x + 0.5) * config_.voxel_size.x,
          config_.min_bound.y + (c.y + 0.5) * config_.voxel_size.y,
          config_.min_bound.z + (c.z + 0.5) * config_.voxel_size.z};
}

const Voxel* VoxelGrid::Find(const geom::Vec3& p) const {
  const auto c = CoordOf(p, config_);
  if (!c) return nullptr;
  const auto* slot = index_.Find(*c);
  return slot == nullptr ? nullptr : &voxels_[*slot];
}

double VoxelGrid::Occupancy() const {
  const VoxelCoord shape = GridShape();
  const double total = static_cast<double>(shape.x) * shape.y * shape.z;
  return total > 0.0 ? static_cast<double>(voxels_.size()) / total : 0.0;
}

PointCloud VoxelGrid::Downsample(const PointCloud& cloud) const {
  // Each voxel reduces independently into its own output slot, so the
  // centroid order matches the voxel order at every thread count.
  std::vector<Point> out(voxels_.size());
  common::ParallelFor(
      config_.num_threads, 0, voxels_.size(), 512,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t vi = lo; vi < hi; ++vi) {
          const Voxel& v = voxels_[vi];
          geom::Vec3 sum;
          double refl = 0.0;
          for (const auto idx : v.point_indices) {
            sum += cloud[idx].position;
            refl += cloud[idx].reflectance;
          }
          const double n = static_cast<double>(v.point_indices.size());
          out[vi] = Point{sum / n, static_cast<float>(refl / n)};
        }
      });
  return PointCloud(std::move(out));
}

}  // namespace cooper::pc
