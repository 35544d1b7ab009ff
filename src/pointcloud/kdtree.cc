#include "pointcloud/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace cooper::pc {
namespace {

double AxisValue(const geom::Vec3& p, int axis) {
  switch (axis) {
    case 0: return p.x;
    case 1: return p.y;
    default: return p.z;
  }
}

}  // namespace

KdTree::KdTree(const PointCloud& cloud) {
  points_.reserve(cloud.size());
  for (const auto& p : cloud) points_.push_back(p.position);
  if (points_.empty()) return;
  std::vector<std::uint32_t> order(points_.size());
  std::iota(order.begin(), order.end(), 0);
  nodes_.reserve(points_.size());
  root_ = Build(order.data(), order.data() + order.size(), 0);
}

std::int32_t KdTree::Build(std::uint32_t* begin, std::uint32_t* end, int depth) {
  if (begin >= end) return -1;
  const int axis = depth % 3;
  std::uint32_t* mid = begin + (end - begin) / 2;
  std::nth_element(begin, mid, end, [&](std::uint32_t a, std::uint32_t b) {
    return AxisValue(points_[a], axis) < AxisValue(points_[b], axis);
  });
  const std::int32_t id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{*mid, -1, -1, static_cast<std::uint8_t>(axis)});
  const std::int32_t left = Build(begin, mid, depth + 1);
  const std::int32_t right = Build(mid + 1, end, depth + 1);
  nodes_[static_cast<std::size_t>(id)].left = left;
  nodes_[static_cast<std::size_t>(id)].right = right;
  return id;
}

void KdTree::NearestImpl(std::int32_t node, const geom::Vec3& q,
                         Neighbor* best) const {
  if (node < 0) return;
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  const geom::Vec3& p = points_[n.point];
  const double d2 = (p - q).SquaredNorm();
  if (d2 < best->squared_distance) {
    best->index = n.point;
    best->squared_distance = d2;
  }
  const double delta = AxisValue(q, n.axis) - AxisValue(p, n.axis);
  const std::int32_t near = delta <= 0.0 ? n.left : n.right;
  const std::int32_t far = delta <= 0.0 ? n.right : n.left;
  NearestImpl(near, q, best);
  if (delta * delta < best->squared_distance) NearestImpl(far, q, best);
}

std::optional<KdTree::Neighbor> KdTree::Nearest(const geom::Vec3& query) const {
  if (root_ < 0) return std::nullopt;
  Neighbor best;
  best.squared_distance = std::numeric_limits<double>::infinity();
  NearestImpl(root_, query, &best);
  return best;
}

std::optional<KdTree::Neighbor> KdTree::NearestWithin(
    const geom::Vec3& query, double max_squared_distance) const {
  if (root_ < 0 || max_squared_distance < 0.0) return std::nullopt;
  Neighbor best;
  // Inclusive radius: a neighbour at exactly `max_squared_distance` counts.
  // NearestImpl accepts strict improvements over the running bound, so seed
  // it one ulp above the limit (d2 < nextafter(max) <=> d2 <= max).
  best.squared_distance = std::nextafter(
      max_squared_distance, std::numeric_limits<double>::infinity());
  NearestImpl(root_, query, &best);
  if (best.squared_distance > max_squared_distance) return std::nullopt;
  return best;
}

}  // namespace cooper::pc
