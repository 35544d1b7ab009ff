#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/roi.h"
#include "eval/experiment.h"
#include "pointcloud/spherical_projection.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

namespace cooper {
namespace {

// --- Vertical interpolation in RangeImage::Densify ---

TEST(DensifyTest, FillsBetweenBeamRows) {
  pc::SphericalProjectionConfig cfg;
  cfg.rows = 8;
  cfg.cols = 32;
  cfg.fov_up_deg = 10.0;
  cfg.fov_down_deg = -10.0;
  pc::RangeImage img(cfg);
  // Populate rows 2 and 4 across several columns with a continuous surface;
  // row 3 is the empty between-beam row.
  for (int c = 10; c <= 20; ++c) {
    for (const int r : {2, 4}) {
      auto& px = img.At(r, c);
      px.valid = true;
      px.range = 20.0f;
      px.x = 20.0f;
      px.z = r == 2 ? 1.0f : 0.0f;
    }
  }
  img.Densify(1);
  for (int c = 10; c <= 20; ++c) {
    ASSERT_TRUE(img.At(3, c).valid) << "col " << c;
    EXPECT_NEAR(img.At(3, c).range, 20.0f, 1e-5);
    EXPECT_NEAR(img.At(3, c).z, 0.5f, 1e-5);  // midpoint of the surface
  }
}

TEST(DensifyTest, DoesNotBridgeDepthDiscontinuities) {
  pc::SphericalProjectionConfig cfg;
  cfg.rows = 8;
  cfg.cols = 32;
  cfg.fov_up_deg = 10.0;
  cfg.fov_down_deg = -10.0;
  pc::RangeImage img(cfg);
  // Row 2 at 5 m (near object), row 4 at 40 m (far background): the empty
  // row between them must NOT be invented — it would hallucinate surface in
  // free space.
  for (int c = 10; c <= 20; ++c) {
    auto& top = img.At(2, c);
    top.valid = true;
    top.range = 5.0f;
    auto& bottom = img.At(4, c);
    bottom.valid = true;
    bottom.range = 40.0f;
  }
  img.Densify(1);
  for (int c = 11; c <= 19; ++c) {
    EXPECT_FALSE(img.At(3, c).valid) << "col " << c;
  }
}

TEST(DensifyTest, SparseScanGainsPointsOnObjects) {
  sim::Scene scene;
  const auto car_box = sim::MakeCarBox({10, 1, 0}, 90.0);
  scene.AddObject(sim::ObjectClass::kCar, car_box, 0.6);
  sim::LidarConfig lidar_cfg = sim::Vlp16Config();
  lidar_cfg.azimuth_steps = 900;
  Rng rng(4);
  const auto cloud =
      sim::LidarSimulator(lidar_cfg).Scan(scene, geom::Pose::Identity(), rng);

  pc::SphericalProjectionConfig proj;
  proj.rows = 32;  // 2x the beam count: between-beam rows to interpolate
  proj.cols = 900;
  proj.fov_up_deg = 15.0;
  proj.fov_down_deg = -15.0;
  pc::RangeImage img(proj);
  img.Project(cloud);
  img.Densify(1);
  const auto densified = img.ToPointCloud();

  // The interpolation targets range-continuous *surfaces*: the car should
  // gain substantially (its between-beam rows fill), even though distant
  // ground rings are too far apart in range to interpolate.
  geom::Box3 car_sensor = car_box;
  car_sensor.center.z -= lidar_cfg.sensor_height;
  const auto before = cloud.CountInBox(car_sensor.Expanded(0.2));
  const auto after = densified.CountInBox(car_sensor.Expanded(0.2));
  ASSERT_GT(before, 20u);
  EXPECT_GT(after, before * 13 / 10);
}

// --- Densify against the copy-and-sort algorithm ---

// The earlier densify, kept here as the oracle: each pass copies the whole
// image, writes fills into the copy while reading the original, and takes
// the median neighbour from std::sort.
void DensifyReference(std::vector<pc::RangePixel>& pixels, int rows, int cols,
                      int max_passes) {
  const auto at = [&](int r, int c) -> const pc::RangePixel& {
    return pixels[static_cast<std::size_t>(r) * cols + c];
  };
  for (int pass = 0; pass < max_passes; ++pass) {
    std::vector<pc::RangePixel> next = pixels;
    bool changed = false;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        if (at(r, c).valid) continue;
        const pc::RangePixel* up =
            (r > 0 && at(r - 1, c).valid) ? &at(r - 1, c) : nullptr;
        const pc::RangePixel* down =
            (r + 1 < rows && at(r + 1, c).valid) ? &at(r + 1, c) : nullptr;
        const pc::RangePixel* left =
            (c > 0 && at(r, c - 1).valid) ? &at(r, c - 1) : nullptr;
        const pc::RangePixel* right =
            (c + 1 < cols && at(r, c + 1).valid) ? &at(r, c + 1) : nullptr;
        pc::RangePixel& out = next[static_cast<std::size_t>(r) * cols + c];
        if (up && down && std::abs(up->range - down->range) < 1.0f) {
          out.valid = true;
          out.range = 0.5f * (up->range + down->range);
          out.x = 0.5f * (up->x + down->x);
          out.y = 0.5f * (up->y + down->y);
          out.z = 0.5f * (up->z + down->z);
          out.reflectance = 0.5f * (up->reflectance + down->reflectance);
          changed = true;
          continue;
        }
        std::vector<const pc::RangePixel*> nbrs;
        for (const pc::RangePixel* n : {up, down, left, right}) {
          if (n) nbrs.push_back(n);
        }
        if (nbrs.size() < 3) continue;
        std::sort(nbrs.begin(), nbrs.end(),
                  [](const pc::RangePixel* a, const pc::RangePixel* b) {
                    return a->range < b->range;
                  });
        out = *nbrs[nbrs.size() / 2];
        changed = true;
      }
    }
    pixels = std::move(next);
    if (!changed) break;
  }
}

// Field-by-field bit comparison (struct padding is not part of a pixel).
bool PixelBitsEqual(const pc::RangePixel& a, const pc::RangePixel& b) {
  const float fa[] = {a.range, a.x, a.y, a.z, a.reflectance};
  const float fb[] = {b.range, b.x, b.y, b.z, b.reflectance};
  return a.valid == b.valid && std::memcmp(fa, fb, sizeof fa) == 0;
}

TEST(DensifyTest, MatchesCopyAndSortReference) {
  pc::SphericalProjectionConfig cfg;
  cfg.rows = 14;
  cfg.cols = 37;
  Rng rng(77);
  // Ranges come from a short list so neighbours often tie exactly — the
  // median pick then depends on the sort's tie order — plus values within
  // 1 m of each other for the vertical interpolation.
  const float kRanges[] = {5.0f, 5.0f, 5.5f, 9.0f, 9.0f, 9.75f, 20.0f};
  for (int trial = 0; trial < 40; ++trial) {
    pc::RangeImage img(cfg);
    const double fill = rng.Uniform(0.2, 0.8);
    for (int r = 0; r < cfg.rows; ++r) {
      for (int c = 0; c < cfg.cols; ++c) {
        if (rng.Uniform() >= fill) continue;
        pc::RangePixel& px = img.At(r, c);
        px.valid = true;
        px.range = kRanges[static_cast<int>(rng.Uniform(0.0, 7.0)) % 7];
        px.x = static_cast<float>(rng.Uniform(-30.0, 30.0));
        px.y = static_cast<float>(rng.Uniform(-30.0, 30.0));
        px.z = static_cast<float>(rng.Uniform(-2.0, 2.0));
        px.reflectance = static_cast<float>(rng.Uniform());
      }
    }
    for (const int passes : {1, 2}) {
      pc::RangeImage got = img;
      std::vector<pc::RangePixel> want;
      for (int r = 0; r < cfg.rows; ++r) {
        for (int c = 0; c < cfg.cols; ++c) want.push_back(img.At(r, c));
      }
      got.Densify(passes);
      DensifyReference(want, cfg.rows, cfg.cols, passes);
      for (int r = 0; r < cfg.rows; ++r) {
        for (int c = 0; c < cfg.cols; ++c) {
          ASSERT_TRUE(PixelBitsEqual(
              got.At(r, c), want[static_cast<std::size_t>(r) * cfg.cols + c]))
              << "trial " << trial << " passes " << passes << " pixel (" << r
              << ", " << c << ")";
        }
      }
    }
  }
}

// --- ROI config knobs ---

TEST(RoiConfigTest, ShareRangeIsConfigurable) {
  pc::PointCloud cloud;
  for (int i = 0; i < 100; ++i) cloud.Add({0.3 * i + 1.0, 0.0, -1.8}, 0.2f);
  cloud.Add({25.0, 0.0, -1.0}, 0.5f);
  core::RoiConfig tight;
  tight.max_share_range = 10.0;
  core::RoiConfig wide;
  wide.max_share_range = 60.0;
  EXPECT_LT(core::SubtractBackground(cloud, tight).size(),
            core::SubtractBackground(cloud, wide).size());
}

TEST(RoiConfigTest, SectorWidthIsConfigurable) {
  pc::PointCloud cloud;
  for (int deg = -90; deg <= 90; deg += 5) {
    const double rad = geom::DegToRad(deg);
    cloud.Add({10 * std::cos(rad), 10 * std::sin(rad), -1.0}, 0.5f);
  }
  core::RoiConfig narrow;
  narrow.front_sector_half_fov_deg = 20.0;
  core::RoiConfig standard;
  EXPECT_LT(
      core::ExtractRoi(cloud, core::RoiCategory::kFrontSector, narrow).size(),
      core::ExtractRoi(cloud, core::RoiCategory::kFrontSector, standard).size());
}

// --- Experiment options ---

TEST(ExperimentOptionsTest, FullSweepModeCoversAllAzimuths) {
  const auto sc = sim::MakeTjScenario(1);
  eval::ExperimentOptions full;
  full.front_half_fov_deg = 0.0;  // disable the 120-degree crop
  const auto outcome = eval::RunCoopCase(sc, sc.cases[0], full);
  // Without the sector crop, in-range flags depend on distance only.
  for (const auto& t : outcome.targets) {
    EXPECT_EQ(t.in_range_a, t.range_a <= full.detection_range);
  }
  // And the scans keep their rear hemispheres: more points than front-only.
  eval::ExperimentOptions cropped;
  const auto cropped_outcome = eval::RunCoopCase(sc, sc.cases[0], cropped);
  EXPECT_GT(outcome.points_a, cropped_outcome.points_a);
}

}  // namespace
}  // namespace cooper
