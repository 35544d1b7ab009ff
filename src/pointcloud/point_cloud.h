// LiDAR point-cloud container and the fusion primitives of Eq. 2-3.
//
// A point is a cartesian position plus a reflectance value, exactly the
// "positional coordinates and reflection value" payload the paper exchanges
// between vehicles (§II-C).
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "geom/box.h"
#include "geom/pose.h"
#include "geom/vec3.h"

namespace cooper::pc {

struct Point {
  geom::Vec3 position;
  float reflectance = 0.0f;
};

/// True when all three coordinates and the reflectance are finite — the
/// points `PointCloud::RemoveInvalid` keeps.
inline bool IsFinite(const Point& p) {
  return std::isfinite(p.position.x) && std::isfinite(p.position.y) &&
         std::isfinite(p.position.z) && std::isfinite(p.reflectance);
}

class PointCloud {
 public:
  PointCloud() = default;
  explicit PointCloud(std::vector<Point> points) : points_(std::move(points)) {}

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  void reserve(std::size_t n) { points_.reserve(n); }
  void clear() { points_.clear(); }

  const Point& operator[](std::size_t i) const { return points_[i]; }
  Point& operator[](std::size_t i) { return points_[i]; }

  auto begin() const { return points_.begin(); }
  auto end() const { return points_.end(); }
  auto begin() { return points_.begin(); }
  auto end() { return points_.end(); }

  void push_back(const Point& p) { points_.push_back(p); }
  void Add(const geom::Vec3& pos, float reflectance) {
    points_.push_back({pos, reflectance});
  }

  const std::vector<Point>& points() const { return points_; }

  /// In-place rigid transform of every point: p <- R*p + t (Eq. 3).
  void Transform(const geom::Pose& pose);

  /// Copy with the transform applied.
  PointCloud Transformed(const geom::Pose& pose) const;

  /// Eq. 2: appends `other`'s points (already expressed in this frame).
  void Merge(const PointCloud& other);

  /// Points inside the (oriented) box.
  PointCloud CropBox(const geom::Box3& box) const;

  /// Points whose azimuth (atan2(y, x)) lies within +-half_fov of
  /// `center_azimuth` (radians) — the 120-degree front-view filter.
  PointCloud FilterAzimuthSector(double center_azimuth, double half_fov) const;

  /// Points with ground-plane range in [min_range, max_range).
  PointCloud FilterRange(double min_range, double max_range) const;

  /// Points with z >= min_z (simple ground removal helper).
  PointCloud FilterMinZ(double min_z) const;

  /// Drops points containing NaN/Inf coordinates. Returns number removed.
  std::size_t RemoveInvalid();

  /// Number of points inside `box`.
  std::size_t CountInBox(const geom::Box3& box) const;

  /// Axis-aligned bounds (min, max). Requires non-empty cloud.
  std::pair<geom::Vec3, geom::Vec3> Bounds() const;

 private:
  std::vector<Point> points_;
};

/// The z percentile taken as the ground height.
inline constexpr double kGroundPercentile = 0.02;

/// Robust ground-height estimate: a low percentile of z (default 2 %),
/// tolerant of a few undershooting returns.  Used by ground removal, ROI
/// background subtraction and registration.
double EstimateGroundZ(const PointCloud& cloud,
                       double percentile = kGroundPercentile);

/// Ground cut in one pass: the finite points of `cloud` (as RemoveInvalid
/// keeps them) with z >= EstimateGroundZ(finite points) + `margin`, in input
/// order.  Equal to copy → RemoveInvalid → FilterMinZ(EstimateGroundZ +
/// margin), without copying the cloud.
PointCloud AboveGround(const PointCloud& cloud, double margin);

}  // namespace cooper::pc
