// Spherical (range-image) projection after SqueezeSeg [27] — the paper's
// SPOD preprocessing step that turns a sparse, irregular cloud into a dense
// grid representation ("point clouds are projected onto a sphere ... to
// generate a dense representation").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pointcloud/point_cloud.h"

namespace cooper::pc {

struct SphericalProjectionConfig {
  int rows = 64;                  // vertical channels (beams)
  int cols = 512;                 // azimuth bins
  double fov_up_deg = 2.0;        // HDL-64-style vertical FOV
  double fov_down_deg = -24.8;
  double azimuth_min_deg = -180.0;
  double azimuth_max_deg = 180.0;
};

/// Per-pixel channels of the projected image.  Plain floats with no
/// initialisers, so the image's pixel storage is never zero-filled.
struct RangePixel {
  float range;  // metres
  float x, y, z;
  float reflectance;
};

/// A rows x cols range image.  Which pixels hold a return is a bitmap, one
/// 64-bit word per 64 columns with each row starting on a new word; a
/// pixel's channels are written when it becomes valid and are defined only
/// while it is.
class RangeImage {
 public:
  RangeImage(const SphericalProjectionConfig& config);

  /// Projects `cloud` into the image; keeps the nearest point per pixel
  /// (the first one on a tie).  Points with a non-finite coordinate or
  /// reflectance are skipped.
  void Project(const PointCloud& cloud);

  const SphericalProjectionConfig& config() const { return config_; }
  int rows() const { return config_.rows; }
  int cols() const { return config_.cols; }

  bool Valid(int r, int c) const {
    return (valid_[Word(r, c)] >> (c % 64)) & 1;
  }
  /// The pixel's channels; defined only when `Valid(r, c)`.
  const RangePixel& At(int r, int c) const { return pixels_[Index(r, c)]; }
  /// Stores `px` at (r, c) and marks the pixel valid.
  void Set(int r, int c, const RangePixel& px) {
    pixels_[Index(r, c)] = px;
    valid_[Word(r, c)] |= std::uint64_t{1} << (c % 64);
  }

  /// Fills isolated empty pixels from valid 4-neighbours (median range) —
  /// the densification step used for sparse 16-beam input.
  void Densify(int max_passes = 1);

  /// Back-projection: returns one point per valid pixel, in row-major order.
  PointCloud ToPointCloud() const;

 private:
  std::size_t Index(int r, int c) const {
    return static_cast<std::size_t>(r) * config_.cols + c;
  }
  std::size_t Word(int r, int c) const {
    return static_cast<std::size_t>(r) * words_per_row_ + c / 64;
  }
  SphericalProjectionConfig config_;
  int words_per_row_;
  // Bit c % 64 of word Word(r, c) is set when pixel (r, c) holds a return;
  // the padding bits past the last column of a row are always 0.
  std::vector<std::uint64_t> valid_;
  std::unique_ptr<RangePixel[]> pixels_;
};

}  // namespace cooper::pc
