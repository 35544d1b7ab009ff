#include "spod/clustering.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>

#include "common/simd.h"

namespace cooper::spod {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

// The other cells a cell can share an edge with, halved so each unordered
// pair of cells is visited once: with side r/√2, two points within r are
// at most ceil(√2) = 2 cells apart per axis, so the 5×5 block around a cell
// holds all of them.  Its corners matter: two cells apart on both axes is
// still within reach of the diagonal.
constexpr int kHalfNeighbourhood[12][2] = {
    {1, 0},  {2, 0},  {-2, 1}, {-1, 1}, {0, 1}, {1, 1},
    {2, 1},  {-2, 2}, {-1, 2}, {0, 2},  {1, 2}, {2, 2}};

// Union-find over point indices, on caller-owned storage.
class DisjointSet {
 public:
  explicit DisjointSet(std::vector<std::uint32_t>& parent, std::size_t n)
      : parent_(parent) {
    parent_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = static_cast<std::uint32_t>(i);
    }
  }
  std::uint32_t Find(std::uint32_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }
  void Union(std::uint32_t a, std::uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::uint32_t>& parent_;
};

// Components -> clusters: scan points in ascending index order, opening a
// cluster slot at each new root, so every cluster's first point is its
// lowest-index member.  Components never depend on union order, and the
// final sort gives one canonical cluster order (first-point positions are
// distinct across clusters in x/y — coincident BEV points always merge).
std::vector<Cluster> CollectClusters(const pc::PointCloud& cloud,
                                     DisjointSet& ds, std::size_t min_points,
                                     std::vector<std::uint32_t>& root_slot) {
  const std::size_t n = cloud.size();
  root_slot.assign(n, kNone);
  std::vector<Cluster> clusters;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t root = ds.Find(i);
    std::uint32_t slot = root_slot[root];
    if (slot == kNone) {
      slot = static_cast<std::uint32_t>(clusters.size());
      root_slot[root] = slot;
      clusters.emplace_back();
    }
    clusters[slot].points.push_back(cloud[i]);
  }
  std::vector<Cluster> out;
  out.reserve(clusters.size());
  for (auto& c : clusters) {
    if (c.points.size() >= min_points) out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const Cluster& a, const Cluster& b) {
    const auto& pa = a.points[0].position;
    const auto& pb = b.points[0].position;
    return std::tie(pa.x, pa.y, pa.z) < std::tie(pb.x, pb.y, pb.z);
  });
  return out;
}

// Squared BEV distance from (x, y) to the box `b`; 0 inside it.  The box
// edges are point coordinates and rounding is monotone, so the computed gap
// never exceeds the computed fl(x − q.x)² + fl(y − q.y)² for any point q
// inside `b`: a gap above r² rules out every pair with `b`'s points under
// the inclusive predicate.
double GapSquared(double x, double y, const CellBounds& b) {
  const double gx = std::max({0.0, b.xmin - x, x - b.xmax});
  const double gy = std::max({0.0, b.ymin - y, y - b.ymax});
  return gx * gx + gy * gy;
}

// Squared gap between two boxes, bounded below by the same argument.
double GapSquared(const CellBounds& a, const CellBounds& b) {
  const double gx = std::max({0.0, b.xmin - a.xmax, a.xmin - b.xmax});
  const double gy = std::max({0.0, b.ymin - a.ymax, a.ymin - b.ymax});
  return gx * gx + gy * gy;
}

// True when some point of chain `a` and some point of chain `b` are within
// the merge radius, by the same inclusive predicate the components are
// defined on.  Only points within r of the other cell's bounds can be in
// such a pair; the rest are dropped before pairing, and pairing stops at
// the first hit.  `near_b` is caller-owned storage.
bool AnyPairWithin(const pc::PointCloud& cloud,
                   const std::vector<std::uint32_t>& next, std::uint32_t a,
                   const CellBounds& bounds_a, std::uint32_t b,
                   const CellBounds& bounds_b, double r2,
                   std::vector<geom::Vec3>& near_b) {
  near_b.clear();
  for (std::uint32_t j = b; j != kNone; j = next[j]) {
    const geom::Vec3& q = cloud[j].position;
    if (GapSquared(q.x, q.y, bounds_a) <= r2) near_b.push_back(q);
  }
  if (near_b.empty()) return false;
  for (std::uint32_t i = a; i != kNone; i = next[i]) {
    const geom::Vec3& p = cloud[i].position;
    if (GapSquared(p.x, p.y, bounds_b) > r2) continue;
    for (const geom::Vec3& q : near_b) {
      const double dx = p.x - q.x;
      const double dy = p.y - q.y;
      if (dx * dx + dy * dy <= r2) return true;
    }
  }
  return false;
}

// The box fit's yaw search: 45 steps of 2 degrees over [0, 90), padded to
// 48 entries so every vector tier's yaw groups divide it; the pad entries
// repeat step 0 and their bounds are never read.
constexpr std::size_t kSteps = 45;
constexpr std::size_t kPaddedSteps = 48;

struct YawTable {
  double yaw[kPaddedSteps];
  double cos[kPaddedSteps];
  double sin[kPaddedSteps];
};

const YawTable& Yaws() {
  static const YawTable table = [] {
    YawTable t{};
    for (std::size_t s = 0; s < kPaddedSteps; ++s) {
      const int step = s < kSteps ? static_cast<int>(s) : 0;
      t.yaw[s] = geom::DegToRad(90.0 * step / static_cast<int>(kSteps));
      t.cos[s] = std::cos(t.yaw[s]);
      t.sin[s] = std::sin(t.yaw[s]);
    }
    return t;
  }();
  return table;
}

}  // namespace

std::vector<Cluster> ClusterPoints(const pc::PointCloud& cloud,
                                   double merge_radius,
                                   std::size_t min_points,
                                   ClusterScratch* scratch) {
  if (cloud.empty()) return {};
  ClusterScratch local;
  ClusterScratch& sc = scratch ? *scratch : local;
  const std::size_t n = cloud.size();
  DisjointSet ds(sc.parent, n);

  // Cell index: FlatMap cell -> dense cell id, with per-cell point lists as
  // prepend chains over two flat arrays (no per-cell vector allocations).
  // The side is r/√2 shrunk by 1e-6, which absorbs rounding in floor(p /
  // cell): two points in one cell are strictly within r of each other, so
  // each point joins its cell with a single union as it is inserted.
  const double cell = merge_radius / std::sqrt(2.0) * (1.0 - 1e-6);
  sc.grid.Clear();
  sc.grid.Reserve(n / 2 + 16);
  sc.cell_keys.clear();
  sc.cell_bounds.clear();
  sc.cell_head.clear();
  sc.point_next.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& p = cloud[i].position;
    const pc::VoxelCoord key{static_cast<std::int32_t>(std::floor(p.x / cell)),
                             static_cast<std::int32_t>(std::floor(p.y / cell)),
                             0};
    const auto [slot, inserted] = sc.grid.TryEmplace(
        key, static_cast<std::uint32_t>(sc.cell_keys.size()));
    if (inserted) {
      sc.cell_keys.push_back(key);
      sc.cell_bounds.push_back({p.x, p.x, p.y, p.y});
      sc.cell_head.push_back(kNone);
    } else {
      CellBounds& b = sc.cell_bounds[*slot];
      b.xmin = std::min(b.xmin, p.x);
      b.xmax = std::max(b.xmax, p.x);
      b.ymin = std::min(b.ymin, p.y);
      b.ymax = std::max(b.ymax, p.y);
      ds.Union(i, sc.cell_head[*slot]);
    }
    sc.point_next[i] = sc.cell_head[*slot];
    sc.cell_head[*slot] = i;
  }

  // Cell-pair sweep: a cross-cell edge joins two whole cells, so each pair
  // of occupied neighbour cells needs one edge at most — none if the cells
  // already share a root or their bounds are more than r apart, otherwise
  // the first pair found within r.  It runs serially: union order changes
  // no component (CollectClusters makes the output order canonical).
  const double r2 = merge_radius * merge_radius;
  const std::size_t num_cells = sc.cell_keys.size();
  std::vector<geom::Vec3> near;
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    const pc::VoxelCoord key = sc.cell_keys[ci];
    const std::uint32_t head = sc.cell_head[ci];
    const CellBounds& bounds = sc.cell_bounds[ci];
    for (const auto& d : kHalfNeighbourhood) {
      const std::uint32_t* nb = sc.grid.Find({key.x + d[0], key.y + d[1], 0});
      if (nb == nullptr) continue;
      const CellBounds& nb_bounds = sc.cell_bounds[*nb];
      if (GapSquared(bounds, nb_bounds) > r2) continue;
      const std::uint32_t other = sc.cell_head[*nb];
      if (ds.Find(head) == ds.Find(other)) continue;
      if (AnyPairWithin(cloud, sc.point_next, head, bounds, other, nb_bounds,
                        r2, near)) {
        ds.Union(head, other);
      }
    }
  }
  return CollectClusters(cloud, ds, min_points, sc.root_slot);
}

std::vector<Cluster> ClusterPointsAllPairs(const pc::PointCloud& cloud,
                                           double merge_radius,
                                           std::size_t min_points) {
  std::vector<std::uint32_t> parent, root_slot;
  const std::size_t n = cloud.size();
  DisjointSet ds(parent, n);
  const double r2 = merge_radius * merge_radius;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const double dx = cloud[i].position.x - cloud[j].position.x;
      const double dy = cloud[i].position.y - cloud[j].position.y;
      if (dx * dx + dy * dy <= r2) ds.Union(i, j);
    }
  }
  return CollectClusters(cloud, ds, min_points, root_slot);
}

geom::Box3 FitOrientedBox(const pc::PointCloud& cluster) {
  const YawTable& yaws = Yaws();
  static_assert(sizeof(pc::Point) % sizeof(double) == 0);
  constexpr std::size_t kPointStride = sizeof(pc::Point) / sizeof(double);
  double bounds[4 * kPaddedSteps];
  common::simd::Active().rotated_bounds(
      yaws.cos, yaws.sin, kPaddedSteps,
      cluster.empty() ? nullptr : &cluster[0].position.x, kPointStride,
      cluster.size(), bounds);
  // Pick the smallest area in step order; the first of equal areas wins.
  geom::Box3 best;
  double best_area = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < kSteps; ++s) {
    const double xmin = bounds[s], xmax = bounds[kPaddedSteps + s];
    const double ymin = bounds[2 * kPaddedSteps + s];
    const double ymax = bounds[3 * kPaddedSteps + s];
    const double area = (xmax - xmin) * (ymax - ymin);
    if (area < best_area) {
      best_area = area;
      const double c = yaws.cos[s], si = yaws.sin[s];
      const double cx = 0.5 * (xmin + xmax), cy = 0.5 * (ymin + ymax);
      best.center = {c * cx - si * cy, si * cx + c * cy, 0.0};
      best.length = xmax - xmin;
      best.width = ymax - ymin;
      best.yaw = yaws.yaw[s];
    }
  }
  // Convention: length >= width, yaw along the long axis.
  if (best.width > best.length) {
    std::swap(best.length, best.width);
    best.yaw = geom::WrapAngle(best.yaw + geom::DegToRad(90.0));
  }
  double zmin = std::numeric_limits<double>::infinity(), zmax = -zmin;
  for (const auto& p : cluster) {
    zmin = std::min(zmin, p.position.z);
    zmax = std::max(zmax, p.position.z);
  }
  best.height = std::max(0.1, zmax - zmin);
  best.center.z = 0.5 * (zmin + zmax);
  return best;
}

bool WiderThanBox(const pc::PointCloud& cluster, double max_length,
                  double max_width) {
  if (cluster.empty()) return false;
  // First points at min x, max x, min y, max y.
  const geom::Vec3* extreme[4] = {&cluster[0].position, &cluster[0].position,
                                  &cluster[0].position, &cluster[0].position};
  for (const auto& pt : cluster) {
    const geom::Vec3& p = pt.position;
    if (p.x < extreme[0]->x) extreme[0] = &p;
    if (p.x > extreme[1]->x) extreme[1] = &p;
    if (p.y < extreme[2]->y) extreme[2] = &p;
    if (p.y > extreme[3]->y) extreme[3] = &p;
  }
  const double diagonal =
      std::sqrt(max_length * max_length + max_width * max_width) + 1e-6;
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      const double dx = extreme[a]->x - extreme[b]->x;
      const double dy = extreme[a]->y - extreme[b]->y;
      if (std::sqrt(dx * dx + dy * dy) > diagonal) return true;
    }
  }
  return false;
}

}  // namespace cooper::spod
