#include "pointcloud/spherical_projection.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cooper::pc {

RangeImage::RangeImage(const SphericalProjectionConfig& config)
    : config_(config),
      pixels_(static_cast<std::size_t>(config.rows) * config.cols) {}

namespace {

// Row/col for a point, or false if outside the sensor FOV.
bool PixelOf(const SphericalProjectionConfig& cfg, const geom::Vec3& p,
             int* row, int* col) {
  const double range = p.Norm();
  if (range < 1e-6) return false;
  const double azimuth = geom::RadToDeg(std::atan2(p.y, p.x));
  const double elevation = geom::RadToDeg(std::asin(p.z / range));
  if (elevation < cfg.fov_down_deg || elevation > cfg.fov_up_deg) return false;
  if (azimuth < cfg.azimuth_min_deg || azimuth >= cfg.azimuth_max_deg) return false;
  const double v = (cfg.fov_up_deg - elevation) / (cfg.fov_up_deg - cfg.fov_down_deg);
  const double u = (azimuth - cfg.azimuth_min_deg) /
                   (cfg.azimuth_max_deg - cfg.azimuth_min_deg);
  *row = std::clamp(static_cast<int>(v * cfg.rows), 0, cfg.rows - 1);
  *col = std::clamp(static_cast<int>(u * cfg.cols), 0, cfg.cols - 1);
  return true;
}

}  // namespace

void RangeImage::Project(const PointCloud& cloud) {
  for (auto& px : pixels_) px = RangePixel{};
  for (const auto& pt : cloud) {
    int r = 0, c = 0;
    if (!PixelOf(config_, pt.position, &r, &c)) continue;
    const float range = static_cast<float>(pt.position.Norm());
    RangePixel& px = At(r, c);
    if (!px.valid || range < px.range) {
      px.range = range;
      px.x = static_cast<float>(pt.position.x);
      px.y = static_cast<float>(pt.position.y);
      px.z = static_cast<float>(pt.position.z);
      px.reflectance = pt.reflectance;
      px.valid = true;
    }
  }
}

double RangeImage::Fill() const {
  std::size_t n = 0;
  for (const auto& px : pixels_) n += px.valid ? 1 : 0;
  return pixels_.empty() ? 0.0 : static_cast<double>(n) / pixels_.size();
}

namespace {

// Sorts up to four neighbours by range with the same element moves as the
// insertion pass std::sort runs on ranges this short: an element smaller
// than the first goes to the front, otherwise it walks back past strictly
// larger ones.  Ties keep their up/down/left/right order.
void SortByRange(const RangePixel** v, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const RangePixel* val = v[i];
    std::size_t j = i;
    if (val->range < v[0]->range) {
      for (; j > 0; --j) v[j] = v[j - 1];
    } else {
      for (; val->range < v[j - 1]->range; --j) v[j] = v[j - 1];
    }
    v[j] = val;
  }
}

}  // namespace

void RangeImage::Densify(int max_passes) {
  // Each pass reads only the image as it stood before the pass: the sweep
  // collects its fills and applies them afterwards, so a pixel filled in
  // this pass never supports a neighbour's fill in the same pass.
  std::vector<std::pair<std::size_t, RangePixel>> fills;
  for (int pass = 0; pass < max_passes; ++pass) {
    fills.clear();
    for (int r = 0; r < rows(); ++r) {
      for (int c = 0; c < cols(); ++c) {
        if (At(r, c).valid) continue;
        const RangePixel* up = (r > 0 && At(r - 1, c).valid) ? &At(r - 1, c) : nullptr;
        const RangePixel* down =
            (r + 1 < rows() && At(r + 1, c).valid) ? &At(r + 1, c) : nullptr;
        const RangePixel* left = (c > 0 && At(r, c - 1).valid) ? &At(r, c - 1) : nullptr;
        const RangePixel* right =
            (c + 1 < cols() && At(r, c + 1).valid) ? &At(r, c + 1) : nullptr;

        // Vertical interpolation: a low-beam-count sensor leaves whole image
        // rows empty between beams; when the returns above and below land on
        // the same surface (similar range), synthesise the midpoint.  This is
        // the densification that lets SPOD treat 16-beam data like denser
        // input (paper §III-C, after SqueezeSeg [27]).
        if (up && down && std::abs(up->range - down->range) < 1.0f) {
          RangePixel px;
          px.valid = true;
          px.range = 0.5f * (up->range + down->range);
          px.x = 0.5f * (up->x + down->x);
          px.y = 0.5f * (up->y + down->y);
          px.z = 0.5f * (up->z + down->z);
          px.reflectance = 0.5f * (up->reflectance + down->reflectance);
          fills.emplace_back(Index(r, c), px);
          continue;
        }

        // Hole filling: isolated dropouts with at least 3 valid neighbours
        // take the median-range neighbour.
        const RangePixel* nbrs[4];
        std::size_t count = 0;
        for (const RangePixel* n : {up, down, left, right}) {
          if (n) nbrs[count++] = n;
        }
        if (count < 3) continue;
        SortByRange(nbrs, count);
        fills.emplace_back(Index(r, c), *nbrs[count / 2]);
      }
    }
    for (const auto& [index, px] : fills) pixels_[index] = px;
    if (fills.empty()) break;
  }
}

PointCloud RangeImage::ToPointCloud() const {
  std::size_t count = 0;
  for (const auto& px : pixels_) count += px.valid ? 1 : 0;
  PointCloud out;
  out.reserve(count);
  for (const auto& px : pixels_) {
    if (px.valid) out.Add({px.x, px.y, px.z}, px.reflectance);
  }
  return out;
}

PointCloud DecimateBeams(const PointCloud& cloud, int factor,
                         const SphericalProjectionConfig& config) {
  if (factor <= 1) return cloud;
  PointCloud out;
  for (const auto& pt : cloud) {
    int r = 0, c = 0;
    if (!PixelOf(config, pt.position, &r, &c)) continue;
    if (r % factor == 0) out.push_back(pt);
  }
  return out;
}

}  // namespace cooper::pc
