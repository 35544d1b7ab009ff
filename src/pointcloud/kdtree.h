// 3D k-d tree over point-cloud positions — nearest-neighbour substrate for
// ICP registration (and any spatial query).  Build once, query many times;
// the tree stores indices into the original cloud.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pointcloud/point_cloud.h"

namespace cooper::pc {

class KdTree {
 public:
  /// Builds over the cloud's positions. O(n log n).
  explicit KdTree(const PointCloud& cloud);

  /// Index and squared distance of the nearest point to `query`; nullopt on
  /// an empty tree.
  struct Neighbor {
    std::uint32_t index = 0;
    double squared_distance = 0.0;
  };
  std::optional<Neighbor> Nearest(const geom::Vec3& query) const;

  /// Nearest neighbour within sqrt(max_squared_distance), if any.  The
  /// radius is *inclusive*: a point at exactly the maximum squared distance
  /// is returned.  All queries are const and safe to issue concurrently
  /// from multiple threads once the tree is built.
  std::optional<Neighbor> NearestWithin(const geom::Vec3& query,
                                        double max_squared_distance) const;

  std::size_t size() const { return points_.size(); }

 private:
  struct Node {
    std::uint32_t point = 0;   // index into points_
    std::int32_t left = -1;    // node indices
    std::int32_t right = -1;
    std::uint8_t axis = 0;
  };

  std::int32_t Build(std::uint32_t* begin, std::uint32_t* end, int depth);
  void NearestImpl(std::int32_t node, const geom::Vec3& q, Neighbor* best) const;

  std::vector<geom::Vec3> points_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace cooper::pc
