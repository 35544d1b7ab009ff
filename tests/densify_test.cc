#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cooper.h"
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
      img.Set(r, c, {20.0f, 20.0f, 0.0f, r == 2 ? 1.0f : 0.0f, 0.0f});
    }
  }
  img.Densify(1);
  for (int c = 10; c <= 20; ++c) {
    ASSERT_TRUE(img.Valid(3, c)) << "col " << c;
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
    img.Set(2, c, {5.0f, 0.0f, 0.0f, 0.0f, 0.0f});
    img.Set(4, c, {40.0f, 0.0f, 0.0f, 0.0f, 0.0f});
  }
  img.Densify(1);
  for (int c = 11; c <= 19; ++c) {
    EXPECT_FALSE(img.Valid(3, c)) << "col " << c;
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

// --- Densify against the dense-image algorithm ---

// A pixel of the earlier dense image: channels zero-initialised, validity a
// per-pixel flag.
struct DensePixel {
  float range = 0.0f;
  float x = 0.0f, y = 0.0f, z = 0.0f;
  float reflectance = 0.0f;
  bool valid = false;
};

// The earlier densify, kept here as the oracle: each pass copies the whole
// image, writes fills into the copy while reading the original, and takes
// the median neighbour from std::sort.
void DensifyReference(std::vector<DensePixel>& pixels, int rows, int cols,
                      int max_passes) {
  const auto at = [&](int r, int c) -> const DensePixel& {
    return pixels[static_cast<std::size_t>(r) * cols + c];
  };
  for (int pass = 0; pass < max_passes; ++pass) {
    std::vector<DensePixel> next = pixels;
    bool changed = false;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        if (at(r, c).valid) continue;
        const DensePixel* up =
            (r > 0 && at(r - 1, c).valid) ? &at(r - 1, c) : nullptr;
        const DensePixel* down =
            (r + 1 < rows && at(r + 1, c).valid) ? &at(r + 1, c) : nullptr;
        const DensePixel* left =
            (c > 0 && at(r, c - 1).valid) ? &at(r, c - 1) : nullptr;
        const DensePixel* right =
            (c + 1 < cols && at(r, c + 1).valid) ? &at(r, c + 1) : nullptr;
        DensePixel& out = next[static_cast<std::size_t>(r) * cols + c];
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
        std::vector<const DensePixel*> nbrs;
        for (const DensePixel* n : {up, down, left, right}) {
          if (n) nbrs.push_back(n);
        }
        if (nbrs.size() < 3) continue;
        std::sort(nbrs.begin(), nbrs.end(),
                  [](const DensePixel* a, const DensePixel* b) {
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

// The earlier dense-image projection: every pixel value-initialised, the
// nearest point kept (the first on a tie).
std::vector<DensePixel> ProjectReference(const pc::SphericalProjectionConfig& cfg,
                                         const pc::PointCloud& cloud) {
  std::vector<DensePixel> pixels(static_cast<std::size_t>(cfg.rows) * cfg.cols);
  for (const auto& pt : cloud) {
    const geom::Vec3& p = pt.position;
    const double range = p.Norm();
    if (range < 1e-6) continue;
    const double azimuth = geom::RadToDeg(std::atan2(p.y, p.x));
    const double elevation = geom::RadToDeg(std::asin(p.z / range));
    if (elevation < cfg.fov_down_deg || elevation > cfg.fov_up_deg) continue;
    if (azimuth < cfg.azimuth_min_deg || azimuth >= cfg.azimuth_max_deg) continue;
    const double v =
        (cfg.fov_up_deg - elevation) / (cfg.fov_up_deg - cfg.fov_down_deg);
    const double u = (azimuth - cfg.azimuth_min_deg) /
                     (cfg.azimuth_max_deg - cfg.azimuth_min_deg);
    const int r = std::clamp(static_cast<int>(v * cfg.rows), 0, cfg.rows - 1);
    const int c = std::clamp(static_cast<int>(u * cfg.cols), 0, cfg.cols - 1);
    DensePixel& px = pixels[static_cast<std::size_t>(r) * cfg.cols + c];
    const float frange = static_cast<float>(range);
    if (!px.valid || frange < px.range) {
      px = {frange, static_cast<float>(p.x), static_cast<float>(p.y),
            static_cast<float>(p.z), pt.reflectance, true};
    }
  }
  return pixels;
}

// Field-by-field bit comparison of a valid pixel (struct padding is not part
// of a pixel).
bool PixelBitsEqual(const pc::RangePixel& a, const DensePixel& b) {
  const float fa[] = {a.range, a.x, a.y, a.z, a.reflectance};
  const float fb[] = {b.range, b.x, b.y, b.z, b.reflectance};
  return std::memcmp(fa, fb, sizeof fa) == 0;
}

// Bits and order of every point.
void ExpectCloudBitsEqual(const pc::PointCloud& got, const pc::PointCloud& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i].position, &want[i].position,
                          sizeof got[i].position),
              0)
        << what << " point " << i;
    ASSERT_EQ(std::memcmp(&got[i].reflectance, &want[i].reflectance,
                          sizeof got[i].reflectance),
              0)
        << what << " point " << i;
  }
}

TEST(DensifyTest, MatchesCopyAndSortReference) {
  // 37 columns fit one bitmap word; 63, 64 and 65 put the row end just
  // inside, on and just past a word edge; 130 spans three words.
  for (const int cols : {37, 63, 64, 65, 130}) {
    pc::SphericalProjectionConfig cfg;
    cfg.rows = 14;
    cfg.cols = cols;
    Rng rng(77);
    // Ranges come from a short list so neighbours often tie exactly — the
    // median pick then depends on the sort's tie order — plus values within
    // 1 m of each other for the vertical interpolation.
    const float kRanges[] = {5.0f, 5.0f, 5.5f, 9.0f, 9.0f, 9.75f, 20.0f};
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<DensePixel> image(static_cast<std::size_t>(cfg.rows) * cols);
      const double fill = rng.Uniform(0.2, 0.8);
      for (DensePixel& px : image) {
        if (rng.Uniform() >= fill) continue;
        px.valid = true;
        px.range = kRanges[static_cast<int>(rng.Uniform(0.0, 7.0)) % 7];
        px.x = static_cast<float>(rng.Uniform(-30.0, 30.0));
        px.y = static_cast<float>(rng.Uniform(-30.0, 30.0));
        px.z = static_cast<float>(rng.Uniform(-2.0, 2.0));
        px.reflectance = static_cast<float>(rng.Uniform());
      }
      for (const int passes : {1, 2}) {
        pc::RangeImage got(cfg);
        for (int r = 0; r < cfg.rows; ++r) {
          for (int c = 0; c < cols; ++c) {
            const DensePixel& px = image[static_cast<std::size_t>(r) * cols + c];
            if (px.valid) {
              got.Set(r, c, {px.range, px.x, px.y, px.z, px.reflectance});
            }
          }
        }
        std::vector<DensePixel> want = image;
        got.Densify(passes);
        DensifyReference(want, cfg.rows, cols, passes);
        for (int r = 0; r < cfg.rows; ++r) {
          for (int c = 0; c < cols; ++c) {
            const DensePixel& w = want[static_cast<std::size_t>(r) * cols + c];
            ASSERT_EQ(got.Valid(r, c), w.valid)
                << "cols " << cols << " trial " << trial << " passes "
                << passes << " pixel (" << r << ", " << c << ")";
            if (w.valid) {
              ASSERT_TRUE(PixelBitsEqual(got.At(r, c), w))
                  << "cols " << cols << " trial " << trial << " passes "
                  << passes << " pixel (" << r << ", " << c << ")";
            }
          }
        }
      }
    }
  }
}

// SpodDetector::Densify (project, one pass, back-project) against the dense
// image: same points, same bits, same row-major order.
TEST(DensifyTest, DetectorDensifyMatchesDenseReference) {
  const sim::Scenario scenario = sim::MakeTjScenario(2);
  const core::CooperConfig config = eval::MakeCooperConfig(scenario.lidar);
  const core::CooperPipeline pipeline(config);
  const pc::SphericalProjectionConfig& proj = config.detector.spherical;
  ASSERT_TRUE(config.detector.densify_sparse_input);
  const sim::LidarSimulator lidar(scenario.lidar);
  for (const std::uint64_t seed : {707u, 5u, 11u}) {
    Rng rng(seed);
    for (std::size_t k = 0; k < scenario.viewpoints.size(); ++k) {
      const pc::PointCloud scan =
          lidar.Scan(scenario.scene, scenario.viewpoints[k].ToPose(), rng);
      // The ego densifies its whole scan; a cooperator's front-sector ROI
      // package is densified on receipt.
      const pc::PointCloud cloud =
          k == 0 ? scan
                 : core::ExtractRoi(scan, core::RoiCategory::kFrontSector,
                                    config.roi);
      std::vector<DensePixel> pixels = ProjectReference(proj, cloud);
      DensifyReference(pixels, proj.rows, proj.cols, 1);
      pc::PointCloud want;
      for (const DensePixel& px : pixels) {
        if (px.valid) want.Add({px.x, px.y, px.z}, px.reflectance);
      }
      const pc::PointCloud got = pipeline.detector().Densify(cloud);
      EXPECT_GT(got.size(), cloud.size() / 2);
      ExpectCloudBitsEqual(got, want,
                           "seed " + std::to_string(seed) + " viewpoint " +
                               std::to_string(k));
    }
  }
}

// A non-finite point used to land on pixel (0, 0) through an int cast of
// NaN, or on a real pixel at infinite range, and come out of the densified
// cloud.  Now it is skipped, as if it were not there.
TEST(DensifyTest, NonFinitePointsAreSkipped) {
  const sim::Scenario scenario = sim::MakeTjScenario(2);
  const core::CooperConfig config = eval::MakeCooperConfig(scenario.lidar);
  const core::CooperPipeline pipeline(config);
  Rng rng(3);
  const pc::PointCloud clean = sim::LidarSimulator(scenario.lidar)
                                   .Scan(scenario.scene,
                                         scenario.viewpoints[0].ToPose(), rng);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const float kNanF = std::numeric_limits<float>::quiet_NaN();
  const float kInfF = std::numeric_limits<float>::infinity();
  pc::PointCloud dirty;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (i % 500 == 0) {
      // Each bad point sits in the direction of a real one, nearer, so it
      // would shadow it if projected.
      const geom::Vec3 p = clean[i].position * 0.5;
      dirty.Add({kNan, p.y, p.z}, 0.5f);
      dirty.Add({p.x, kInf, p.z}, 0.5f);
      dirty.Add({p.x, p.y, -kInf}, 0.5f);
      dirty.Add({p.x, p.y, kNan}, 0.5f);
      dirty.Add({kInf, 0.0, 0.0}, 0.5f);
      dirty.Add(p, kNanF);
      dirty.Add(p, -kInfF);
      dirty.Add(p, kInfF);
    }
    dirty.push_back(clean[i]);
  }
  ExpectCloudBitsEqual(pipeline.detector().Densify(dirty),
                       pipeline.detector().Densify(clean), "non-finite");
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
