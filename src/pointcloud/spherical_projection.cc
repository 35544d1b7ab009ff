#include "pointcloud/spherical_projection.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace cooper::pc {

RangeImage::RangeImage(const SphericalProjectionConfig& config)
    : config_(config),
      words_per_row_((config.cols + 63) / 64),
      valid_(static_cast<std::size_t>(config.rows) * words_per_row_),
      pixels_(std::make_unique_for_overwrite<RangePixel[]>(
          static_cast<std::size_t>(config.rows) * config.cols)) {}

namespace {

// Row/col and range for a point, or false if outside the sensor FOV.
bool PixelOf(const SphericalProjectionConfig& cfg, const geom::Vec3& p,
             int* row, int* col, double* range_out) {
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
  *range_out = range;
  return true;
}

}  // namespace

void RangeImage::Project(const PointCloud& cloud) {
  std::fill(valid_.begin(), valid_.end(), 0);
  for (const auto& pt : cloud) {
    int r = 0, c = 0;
    double norm = 0.0;
    if (!IsFinite(pt) || !PixelOf(config_, pt.position, &r, &c, &norm)) continue;
    const float range = static_cast<float>(norm);
    if (!Valid(r, c) || range < At(r, c).range) {
      Set(r, c,
          {range, static_cast<float>(pt.position.x),
           static_cast<float>(pt.position.y), static_cast<float>(pt.position.z),
           pt.reflectance});
    }
  }
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
  struct Fill {
    int r, c;
    RangePixel px;
  };
  std::vector<Fill> fills;
  const int words = words_per_row_;
  for (int pass = 0; pass < max_passes; ++pass) {
    fills.clear();
    for (int r = 0; r < rows(); ++r) {
      const std::uint64_t* row = valid_.data() + Word(r, 0);
      for (int w = 0; w < words; ++w) {
        // Bit b of each mask: is the pixel at column 64w + b, or its
        // up/down/left/right neighbour, valid?  Left and right shift in the
        // edge bit of the neighbouring word of the same row; nothing carries
        // across a row end.
        const std::uint64_t v = row[w];
        const std::uint64_t up = r > 0 ? row[w - words] : 0;
        const std::uint64_t down = r + 1 < rows() ? row[w + words] : 0;
        const std::uint64_t left = (v << 1) | (w > 0 ? row[w - 1] >> 63 : 0);
        const std::uint64_t right =
            (v >> 1) | (w + 1 < words ? row[w + 1] << 63 : 0);
        // An empty pixel can fill only with both vertical neighbours (the
        // midpoint test) or with at least three neighbours (the median).
        // Every term needs a vertical neighbour, and the padding bits of
        // every row are 0, so padding is never a candidate.
        std::uint64_t cand = ~v & ((up & down) | (left & right & (up | down)));
        for (; cand != 0; cand &= cand - 1) {
          const int b = std::countr_zero(cand);
          const std::uint64_t bit = std::uint64_t{1} << b;
          const int c = w * 64 + b;
          const RangePixel* u = (up & bit) ? &At(r - 1, c) : nullptr;
          const RangePixel* d = (down & bit) ? &At(r + 1, c) : nullptr;
          const RangePixel* l = (left & bit) ? &At(r, c - 1) : nullptr;
          const RangePixel* rt = (right & bit) ? &At(r, c + 1) : nullptr;

          // Vertical interpolation: a low-beam-count sensor leaves whole
          // image rows empty between beams; when the returns above and below
          // land on the same surface (similar range), synthesise the
          // midpoint.  This is the densification that lets SPOD treat
          // 16-beam data like denser input (paper §III-C, after SqueezeSeg
          // [27]).
          if (u && d && std::abs(u->range - d->range) < 1.0f) {
            fills.push_back(
                {r, c,
                 {0.5f * (u->range + d->range), 0.5f * (u->x + d->x),
                  0.5f * (u->y + d->y), 0.5f * (u->z + d->z),
                  0.5f * (u->reflectance + d->reflectance)}});
            continue;
          }

          // Hole filling: isolated dropouts with at least 3 valid
          // neighbours take the median-range neighbour.
          const RangePixel* nbrs[4];
          std::size_t count = 0;
          for (const RangePixel* n : {u, d, l, rt}) {
            if (n) nbrs[count++] = n;
          }
          if (count < 3) continue;
          SortByRange(nbrs, count);
          fills.push_back({r, c, *nbrs[count / 2]});
        }
      }
    }
    for (const Fill& f : fills) Set(f.r, f.c, f.px);
    if (fills.empty()) break;
  }
}

PointCloud RangeImage::ToPointCloud() const {
  std::size_t count = 0;
  for (const std::uint64_t w : valid_) count += std::popcount(w);
  PointCloud out;
  out.reserve(count);
  for (int r = 0; r < rows(); ++r) {
    for (int w = 0; w < words_per_row_; ++w) {
      for (std::uint64_t bits = valid_[Word(r, 0) + w]; bits != 0;
           bits &= bits - 1) {
        const RangePixel& px = At(r, w * 64 + std::countr_zero(bits));
        out.Add({px.x, px.y, px.z}, px.reflectance);
      }
    }
  }
  return out;
}

}  // namespace cooper::pc
