#include "feat/fusion.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/flat_map.h"
#include "common/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cooper::feat {

AlignedFeatures AlignToGrid(const FeatureMap& map,
                            const geom::Pose& ego_from_sender,
                            const GridSpec& grid) {
  obs::Span span("feat.align", "feat");
  AlignedFeatures out;
  const std::size_t n = map.num_active();
  const std::size_t channels = map.channels();
  out.map.origin = grid.min_bound;
  out.map.voxel_size = grid.voxel_size;
  out.map.tensor.spatial_shape = pc::VoxelCoord{
      static_cast<std::int32_t>(
          std::ceil((grid.max_bound.x - grid.min_bound.x) / grid.voxel_size.x)),
      static_cast<std::int32_t>(
          std::ceil((grid.max_bound.y - grid.min_bound.y) / grid.voxel_size.y)),
      static_cast<std::int32_t>(
          std::ceil((grid.max_bound.z - grid.min_bound.z) / grid.voxel_size.z))};
  if (n == 0 || channels == 0) {
    out.map.tensor.features = nn::Tensor({std::size_t{0}, channels});
    return out;
  }

  common::FlatMap<pc::VoxelCoord, std::uint32_t, pc::VoxelCoordHash> index;
  index.Reserve(n);
  std::vector<float> features;  // row-major staging, first-appearance order
  features.reserve(n * channels);
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec3 center = ego_from_sender * map.SiteCenter(map.tensor.coords[i]);
    pc::VoxelCoord ego_coord;
    if (!grid.CoordOf(center, &ego_coord)) {
      ++dropped;
      continue;
    }
    auto [row, inserted] = index.TryEmplace(
        ego_coord, static_cast<std::uint32_t>(out.map.tensor.coords.size()));
    if (inserted) {
      out.map.tensor.coords.push_back(ego_coord);
      out.pseudo.Add(center, kPseudoPointReflectance);
      for (std::size_t c = 0; c < channels; ++c) {
        features.push_back(map.tensor.features.At(i, c));
      }
    } else {
      // Several sender voxels quantized into one ego voxel: maxout on the
      // spot, same semantics as the cross-map merge.  max_into replicates
      // std::max element-wise (keeps dst on ties/NaN), vectorized.
      common::simd::Active().max_into(
          features.data() + static_cast<std::size_t>(*row) * channels,
          map.tensor.features.data() + i * channels, channels);
    }
  }
  const std::size_t kept = out.map.tensor.coords.size();
  out.map.tensor.features = nn::Tensor({kept, channels});
  std::copy(features.begin(), features.end(), out.map.tensor.features.data());
  COOPER_COUNT_N("feat.sites_aligned", kept);
  COOPER_COUNT_N("feat.sites_out_of_grid", dropped);
  return out;
}

FeatureMap MaxPool(const FeatureMap& map, int factor) {
  if (factor <= 1) return map;
  obs::Span span("feat.max_pool", "feat");
  const std::size_t n = map.num_active();
  const std::size_t channels = map.channels();
  const auto down = [factor](std::int32_t c) {
    // Floor division: grid coords are nonnegative in practice, but a decoded
    // map is attacker-shaped, so keep negatives well-defined.
    return c >= 0 ? c / factor : -((-c + factor - 1) / factor);
  };
  FeatureMap out;
  out.origin = map.origin;
  out.voxel_size = {map.voxel_size.x * factor, map.voxel_size.y * factor,
                    map.voxel_size.z * factor};
  out.tensor.spatial_shape =
      pc::VoxelCoord{(map.tensor.spatial_shape.x + factor - 1) / factor,
                     (map.tensor.spatial_shape.y + factor - 1) / factor,
                     (map.tensor.spatial_shape.z + factor - 1) / factor};
  if (n == 0 || channels == 0) {
    out.tensor.features = nn::Tensor({std::size_t{0}, channels});
    return out;
  }

  common::FlatMap<pc::VoxelCoord, std::uint32_t, pc::VoxelCoordHash> index;
  index.Reserve(n);
  std::vector<float> features;  // row-major staging, first-appearance order
  features.reserve(n * channels);
  for (std::size_t i = 0; i < n; ++i) {
    const pc::VoxelCoord& c = map.tensor.coords[i];
    const pc::VoxelCoord coarse{down(c.x), down(c.y), down(c.z)};
    auto [row, inserted] = index.TryEmplace(
        coarse, static_cast<std::uint32_t>(out.tensor.coords.size()));
    if (inserted) {
      out.tensor.coords.push_back(coarse);
      for (std::size_t ch = 0; ch < channels; ++ch) {
        features.push_back(map.tensor.features.At(i, ch));
      }
    } else {
      common::simd::Active().max_into(
          features.data() + static_cast<std::size_t>(*row) * channels,
          map.tensor.features.data() + i * channels, channels);
    }
  }
  const std::size_t kept = out.tensor.coords.size();
  out.tensor.features = nn::Tensor({kept, channels});
  std::copy(features.begin(), features.end(), out.tensor.features.data());
  COOPER_COUNT_N("feat.sites_pooled_in", n);
  COOPER_COUNT_N("feat.sites_pooled_out", kept);
  return out;
}

}  // namespace cooper::feat
