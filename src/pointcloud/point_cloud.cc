#include "pointcloud/point_cloud.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/simd.h"

namespace cooper::pc {

// The batched rigid-transform kernel walks Point records as strided xyz
// doubles; the reflectance float pads the struct to exactly 4 doubles.
static_assert(sizeof(Point) == 4 * sizeof(double) &&
                  offsetof(Point, position) == 0,
              "Point must be xyz doubles + one padded float");

void PointCloud::Transform(const geom::Pose& pose) {
  if (points_.empty()) return;
  double rt[12];
  pose.PackRowMajor(rt);
  constexpr std::size_t kStride = sizeof(Point) / sizeof(double);
  double* base = &points_[0].position.x;
  common::simd::Active().rigid_transform(rt, base, kStride, points_.size(),
                                         base, kStride);
}

PointCloud PointCloud::Transformed(const geom::Pose& pose) const {
  PointCloud out = *this;
  out.Transform(pose);
  return out;
}

void PointCloud::Merge(const PointCloud& other) {
  points_.reserve(points_.size() + other.points_.size());
  points_.insert(points_.end(), other.points_.begin(), other.points_.end());
}

PointCloud PointCloud::CropBox(const geom::Box3& box) const {
  PointCloud out;
  out.reserve(points_.size());
  for (const auto& p : points_) {
    if (box.Contains(p.position)) out.push_back(p);
  }
  return out;
}

PointCloud PointCloud::FilterAzimuthSector(double center_azimuth,
                                           double half_fov) const {
  PointCloud out;
  out.reserve(points_.size());
  for (const auto& p : points_) {
    const double az = std::atan2(p.position.y, p.position.x);
    if (std::abs(geom::WrapAngle(az - center_azimuth)) <= half_fov) {
      out.push_back(p);
    }
  }
  return out;
}

PointCloud PointCloud::FilterRange(double min_range, double max_range) const {
  PointCloud out;
  out.reserve(points_.size());
  for (const auto& p : points_) {
    const double r = p.position.NormXY();
    if (r >= min_range && r < max_range) out.push_back(p);
  }
  return out;
}

PointCloud PointCloud::FilterMinZ(double min_z) const {
  PointCloud out;
  out.reserve(points_.size());
  for (const auto& p : points_) {
    if (p.position.z >= min_z) out.push_back(p);
  }
  return out;
}

std::size_t PointCloud::RemoveInvalid() {
  const std::size_t before = points_.size();
  std::erase_if(points_, [](const Point& p) { return !IsFinite(p); });
  return before - points_.size();
}

std::size_t PointCloud::CountInBox(const geom::Box3& box) const {
  std::size_t n = 0;
  for (const auto& p : points_) {
    if (box.Contains(p.position)) ++n;
  }
  return n;
}

std::pair<geom::Vec3, geom::Vec3> PointCloud::Bounds() const {
  geom::Vec3 lo{std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::infinity()};
  geom::Vec3 hi = -lo;
  for (const auto& p : points_) {
    lo.x = std::min(lo.x, p.position.x);
    lo.y = std::min(lo.y, p.position.y);
    lo.z = std::min(lo.z, p.position.z);
    hi.x = std::max(hi.x, p.position.x);
    hi.y = std::max(hi.y, p.position.y);
    hi.z = std::max(hi.z, p.position.z);
  }
  return {lo, hi};
}

namespace {

// The `percentile` order statistic of `zs` (reordered in place), or 0 when
// empty: the ground height both ground estimators report.
double GroundZOf(std::vector<double>& zs, double percentile) {
  if (zs.empty()) return 0.0;
  const std::size_t k = std::min(
      zs.size() - 1,
      static_cast<std::size_t>(percentile * static_cast<double>(zs.size())));
  std::nth_element(zs.begin(), zs.begin() + static_cast<std::ptrdiff_t>(k),
                   zs.end());
  return zs[k];
}

}  // namespace

double EstimateGroundZ(const PointCloud& cloud, double percentile) {
  std::vector<double> zs;
  zs.reserve(cloud.size());
  for (const auto& p : cloud) zs.push_back(p.position.z);
  return GroundZOf(zs, percentile);
}

PointCloud AboveGround(const PointCloud& cloud, double margin) {
  std::vector<double> zs;
  zs.reserve(cloud.size());
  for (const auto& p : cloud) {
    if (IsFinite(p)) zs.push_back(p.position.z);
  }
  if (zs.empty()) return {};
  const double min_z = GroundZOf(zs, kGroundPercentile) + margin;
  // The z values are exactly the kept points' z, so counting them sizes the
  // output without a second pass over the cloud.
  const auto kept = static_cast<std::size_t>(
      std::count_if(zs.begin(), zs.end(), [&](double z) { return z >= min_z; }));
  PointCloud out;
  out.reserve(kept);
  for (const auto& p : cloud) {
    if (IsFinite(p) && p.position.z >= min_z) out.push_back(p);
  }
  return out;
}

}  // namespace cooper::pc
