// Feature-level exchange: codec round trips, grid alignment, maxout fusion
// and the bandwidth-tiered exchange planner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "core/cooper.h"
#include "core/demand.h"
#include "eval/experiment.h"
#include "feat/codec.h"
#include "feat/feature_map.h"
#include "feat/fusion.h"
#include "feat/planner.h"
#include "pointcloud/codec.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

namespace cooper::feat {
namespace {

// Hand-built map: one feature row per coordinate, fixed grid geometry.
FeatureMap MakeMap(const std::vector<pc::VoxelCoord>& coords,
                   const std::vector<std::vector<float>>& features,
                   pc::VoxelCoord shape = {16, 16, 8},
                   geom::Vec3 origin = {0.0, -4.0, -1.0},
                   geom::Vec3 voxel_size = {0.5, 0.5, 0.5}) {
  const std::size_t channels = features.empty() ? 0 : features[0].size();
  FeatureMap map;
  map.tensor.coords = coords;
  map.tensor.spatial_shape = shape;
  map.tensor.features = nn::Tensor({coords.size(), channels});
  for (std::size_t i = 0; i < coords.size(); ++i) {
    for (std::size_t c = 0; c < channels; ++c) {
      map.tensor.features.At(i, c) = features[i][c];
    }
  }
  map.origin = origin;
  map.voxel_size = voxel_size;
  return map;
}

// A realistic map straight off the SPOD VFE tap, for integration-level tests.
FeatureMap RealVfeMap() {
  sim::Scenario scenario = sim::MakeTjScenario(2);
  scenario.lidar.azimuth_steps = 900;
  const sim::LidarSimulator lidar(scenario.lidar);
  Rng rng(scenario.seed);
  const pc::PointCloud cloud =
      lidar.Scan(scenario.scene, scenario.viewpoints[1].ToPose(), rng);
  const core::CooperPipeline pipeline(eval::MakeCooperConfig(scenario.lidar));
  return pipeline.detector().ExtractFeatureMap(cloud);
}

// --- FeatureMap / GridSpec ---

TEST(FeatureMapTest, Names) {
  EXPECT_STREQ(ExchangeLevelName(ExchangeLevel::kRawCloud), "raw cloud");
  EXPECT_STREQ(ExchangeLevelName(ExchangeLevel::kRoiCloud), "ROI cloud");
  EXPECT_STREQ(ExchangeLevelName(ExchangeLevel::kVoxelFeatures),
               "voxel features");
  EXPECT_STREQ(DemandClassName(DemandClass::kFullFrame), "full frame");
  EXPECT_STREQ(DemandClassName(DemandClass::kFrontSector), "front sector");
  EXPECT_STREQ(DemandClassName(DemandClass::kForwardLead), "forward lead");
}

TEST(FeatureMapTest, SiteCenterIsVoxelMidpoint) {
  const FeatureMap map = MakeMap({{2, 3, 1}}, {{1.0f}});
  const geom::Vec3 center = map.SiteCenter(map.tensor.coords[0]);
  EXPECT_DOUBLE_EQ(center.x, 0.0 + 2.5 * 0.5);
  EXPECT_DOUBLE_EQ(center.y, -4.0 + 3.5 * 0.5);
  EXPECT_DOUBLE_EQ(center.z, -1.0 + 1.5 * 0.5);
}

TEST(GridSpecTest, CoordMatchesVoxelGridAssignment) {
  // GridSpec::CoordOf must mirror VoxelGrid exactly — feature sites fused
  // into the ego grid land in the voxels the ego's own points would.
  pc::VoxelGridConfig cfg;
  cfg.min_bound = {0.0, -8.0, -2.0};
  cfg.max_bound = {16.0, 8.0, 2.0};
  cfg.voxel_size = {0.4, 0.4, 0.8};
  pc::PointCloud cloud;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    cloud.Add({rng.Uniform(0.0, 16.0), rng.Uniform(-8.0, 8.0),
               rng.Uniform(-2.0, 2.0)},
              0.5f);
  }
  const pc::VoxelGrid grid(cloud, cfg);
  const GridSpec spec = GridSpec::FromVoxelConfig(cfg);
  ASSERT_FALSE(grid.voxels().empty());
  for (const pc::Voxel& v : grid.voxels()) {
    pc::VoxelCoord c;
    ASSERT_TRUE(spec.CoordOf(grid.VoxelCenter(v.coord), &c));
    EXPECT_EQ(c, v.coord);
  }
}

TEST(GridSpecTest, HalfOpenBounds) {
  const GridSpec spec{{0, 0, 0}, {1, 1, 1}, {0.5, 0.5, 0.5}};
  pc::VoxelCoord c;
  EXPECT_TRUE(spec.CoordOf({0.0, 0.0, 0.0}, &c));
  EXPECT_EQ(c, (pc::VoxelCoord{0, 0, 0}));
  EXPECT_FALSE(spec.CoordOf({1.0, 0.5, 0.5}, &c));  // max bound is exclusive
  EXPECT_FALSE(spec.CoordOf({-1e-9, 0.5, 0.5}, &c));
  EXPECT_TRUE(spec.CoordOf({0.999, 0.999, 0.999}, &c));
  EXPECT_EQ(c, (pc::VoxelCoord{1, 1, 1}));
}

// --- Codec ---

TEST(FeatureCodecTest, EmptyMapRoundTrips) {
  // Zero sites is legal; zero *channels* is not (the decoder treats a
  // channel-less map as corruption, so build the empty map by hand).
  FeatureMap map = MakeMap({}, {});
  map.tensor.features = nn::Tensor({0, 4});
  const FeatureCodec codec;
  const auto bytes = codec.Encode(map);
  const auto decoded = FeatureCodec::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_active(), 0u);
  EXPECT_EQ(decoded->channels(), 4u);
}

TEST(FeatureCodecTest, RoundTripPreservesStructure) {
  const FeatureMap map = MakeMap(
      {{1, 2, 0}, {5, 2, 1}, {5, 3, 1}, {0, 0, 7}},
      {{0.0f, 1.5f, 0.25f}, {2.0f, 0.0f, 0.5f}, {1.0f, 1.0f, 1.0f},
       {0.0f, 0.0f, 3.0f}});
  for (const int bits : {8, 16}) {
    const FeatureCodec codec(FeatureCodecConfig{bits});
    const auto bytes = codec.Encode(map);
    const auto decoded = FeatureCodec::Decode(bytes);
    ASSERT_TRUE(decoded.ok()) << bits;
    // Sites come back (z, y, x)-sorted; the set must be preserved.
    ASSERT_EQ(decoded->num_active(), map.num_active()) << bits;
    EXPECT_EQ(decoded->channels(), map.channels()) << bits;
    EXPECT_EQ(decoded->tensor.spatial_shape, map.tensor.spatial_shape) << bits;
    EXPECT_DOUBLE_EQ(decoded->origin.y, map.origin.y) << bits;
    EXPECT_DOUBLE_EQ(decoded->voxel_size.z, map.voxel_size.z) << bits;
    for (std::size_t i = 0; i < map.num_active(); ++i) {
      // Locate the original row for the decoded coordinate.
      std::size_t src = map.num_active();
      for (std::size_t j = 0; j < map.num_active(); ++j) {
        if (map.tensor.coords[j] == decoded->tensor.coords[i]) src = j;
      }
      ASSERT_LT(src, map.num_active()) << bits;
      for (std::size_t c = 0; c < map.channels(); ++c) {
        const float original = map.tensor.features.At(src, c);
        const float roundtrip = decoded->tensor.features.At(i, c);
        if (original == 0.0f) {
          // Exact zeros ride the mask, not the quantizer.
          EXPECT_EQ(roundtrip, 0.0f) << bits;
        } else {
          // Linear quantization error is at most half a step.
          const double step = bits == 8 ? 3.0 / 255.0 : 3.0 / 65535.0;
          EXPECT_NEAR(roundtrip, original, step / 2 + 1e-6) << bits;
        }
      }
    }
  }
}

TEST(FeatureCodecTest, ChannelMinimumDecodesExactly) {
  // zero_point is the channel minimum over nonzero values, so q = 0 decodes
  // to it bit-exactly regardless of bit depth.
  const FeatureMap map =
      MakeMap({{0, 0, 0}, {1, 0, 0}}, {{0.125f}, {7.75f}});
  for (const int bits : {8, 16}) {
    const auto decoded =
        FeatureCodec::Decode(FeatureCodec(FeatureCodecConfig{bits}).Encode(map));
    ASSERT_TRUE(decoded.ok());
    bool saw_min = false;
    for (std::size_t i = 0; i < decoded->num_active(); ++i) {
      saw_min = saw_min || decoded->tensor.features.At(i, 0) == 0.125f;
    }
    EXPECT_TRUE(saw_min) << bits;
  }
}

TEST(FeatureCodecTest, RoundTripStableAtBothBitDepths) {
  // Decode(Encode(map)) re-encodes to the identical byte stream: decoded
  // values sit exactly on their quantization levels.
  const FeatureMap map = RealVfeMap();
  ASSERT_GT(map.num_active(), 100u);
  for (const int bits : {8, 16}) {
    const FeatureCodec codec(FeatureCodecConfig{bits});
    const auto first = codec.Encode(map);
    const auto decoded = FeatureCodec::Decode(first);
    ASSERT_TRUE(decoded.ok()) << bits;
    const auto second = codec.Encode(*decoded);
    EXPECT_EQ(first, second) << "re-encode diverged at " << bits << " bits";
    // And the second decode is bit-identical to the first.
    const auto redecoded = FeatureCodec::Decode(second);
    ASSERT_TRUE(redecoded.ok()) << bits;
    ASSERT_EQ(redecoded->num_active(), decoded->num_active()) << bits;
    for (std::size_t i = 0; i < decoded->num_active(); ++i) {
      for (std::size_t c = 0; c < decoded->channels(); ++c) {
        EXPECT_EQ(decoded->tensor.features.At(i, c),
                  redecoded->tensor.features.At(i, c))
            << bits;
      }
    }
  }
}

TEST(FeatureCodecTest, SixteenBitIsTighterThanEightBit) {
  const FeatureMap map = RealVfeMap();
  auto max_error = [&](int bits) {
    const auto decoded =
        FeatureCodec::Decode(FeatureCodec(FeatureCodecConfig{bits}).Encode(map));
    EXPECT_TRUE(decoded.ok());
    double worst = 0.0;
    for (std::size_t i = 0; i < map.num_active(); ++i) {
      std::size_t row = map.num_active();
      for (std::size_t j = 0; j < decoded->num_active(); ++j) {
        if (decoded->tensor.coords[j] == map.tensor.coords[i]) row = j;
      }
      EXPECT_LT(row, decoded->num_active());
      for (std::size_t c = 0; c < map.channels(); ++c) {
        worst = std::max(worst,
                         std::abs(static_cast<double>(
                             decoded->tensor.features.At(row, c) -
                             map.tensor.features.At(i, c))));
      }
    }
    return worst;
  };
  const double e8 = max_error(8);
  const double e16 = max_error(16);
  EXPECT_LT(e16, e8);
  EXPECT_LT(e16, 1e-3);
}

TEST(FeatureCodecTest, FeaturePayloadBeatsRoiCloudFiveFold) {
  // The tentpole's bandwidth claim at the unit level: the quantized feature
  // map of a scan is >= 5x smaller than the compressed cloud it summarizes
  // (BENCH_feat.json asserts the same end-to-end).
  sim::Scenario scenario = sim::MakeTjScenario(2);
  scenario.lidar.azimuth_steps = 900;
  const sim::LidarSimulator lidar(scenario.lidar);
  Rng rng(scenario.seed);
  const pc::PointCloud cloud =
      lidar.Scan(scenario.scene, scenario.viewpoints[1].ToPose(), rng);
  const core::CooperPipeline pipeline(eval::MakeCooperConfig(scenario.lidar));
  const auto cloud_bytes = pc::CloudCodec().Encode(cloud);
  const auto feature_bytes =
      FeatureCodec().Encode(pipeline.detector().ExtractFeatureMap(cloud));
  EXPECT_GE(cloud_bytes.size(), 5 * feature_bytes.size())
      << cloud_bytes.size() << " cloud vs " << feature_bytes.size()
      << " feature bytes";
}

TEST(FeatureCodecTest, DefensiveDecodeRejectsDamage) {
  const FeatureMap map = MakeMap({{1, 1, 1}}, {{1.0f, 2.0f}});
  const auto bytes = FeatureCodec().Encode(map);
  {  // bad magic
    auto bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_EQ(FeatureCodec::Decode(bad).status().code(), StatusCode::kDataLoss);
  }
  {  // unknown flag bits
    auto bad = bytes;
    bad[4] |= 0x80;
    EXPECT_EQ(FeatureCodec::Decode(bad).status().code(), StatusCode::kDataLoss);
  }
  {  // trailing garbage
    auto bad = bytes;
    bad.push_back(0);
    EXPECT_EQ(FeatureCodec::Decode(bad).status().code(), StatusCode::kDataLoss);
  }
  {  // every strict prefix fails cleanly
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_EQ(FeatureCodec::Decode(prefix).status().code(),
                StatusCode::kDataLoss)
          << "prefix of " << cut << " bytes accepted";
    }
  }
}

// --- Fusion ---

TEST(FusionTest, IdentityAlignKeepsSitesAndEmitsPseudoPoints) {
  const FeatureMap map =
      MakeMap({{1, 2, 0}, {6, 6, 3}}, {{1.0f, 0.5f}, {0.25f, 2.0f}});
  const GridSpec grid{map.origin,
                      {map.origin.x + 16 * 0.5, map.origin.y + 16 * 0.5,
                       map.origin.z + 8 * 0.5},
                      map.voxel_size};
  const AlignedFeatures aligned = AlignToGrid(map, geom::Pose{}, grid);
  ASSERT_EQ(aligned.map.num_active(), 2u);
  EXPECT_EQ(aligned.map.tensor.coords[0], map.tensor.coords[0]);
  EXPECT_EQ(aligned.map.tensor.coords[1], map.tensor.coords[1]);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(aligned.map.tensor.features.At(i, c),
                map.tensor.features.At(i, c));
    }
  }
  ASSERT_EQ(aligned.pseudo.size(), 2u);
  for (std::size_t i = 0; i < aligned.pseudo.size(); ++i) {
    EXPECT_EQ(aligned.pseudo[i].reflectance, kPseudoPointReflectance);
    const geom::Vec3 center = map.SiteCenter(map.tensor.coords[i]);
    EXPECT_DOUBLE_EQ(aligned.pseudo[i].position.x, center.x);
    EXPECT_DOUBLE_EQ(aligned.pseudo[i].position.y, center.y);
    EXPECT_DOUBLE_EQ(aligned.pseudo[i].position.z, center.z);
  }
}

TEST(FusionTest, OutOfGridSitesDropped) {
  const FeatureMap map = MakeMap({{1, 1, 1}, {15, 15, 7}}, {{1.0f}, {2.0f}});
  // Ego grid covers only the first quadrant of the sender's extent.
  const GridSpec grid{map.origin,
                      {map.origin.x + 2.0, map.origin.y + 2.0,
                       map.origin.z + 2.0},
                      map.voxel_size};
  const AlignedFeatures aligned = AlignToGrid(map, geom::Pose{}, grid);
  ASSERT_EQ(aligned.map.num_active(), 1u);
  EXPECT_EQ(aligned.pseudo.size(), 1u);
  EXPECT_EQ(aligned.map.tensor.features.At(0, 0), 1.0f);
}

TEST(FusionTest, CollidingSitesMaxoutMergeInPlace) {
  // Ego voxels twice the size of the sender's: sites (2,0,0) and (3,0,0)
  // land in the same ego voxel and must channel-wise max into one site.
  const FeatureMap map =
      MakeMap({{2, 0, 0}, {3, 0, 0}}, {{1.0f, 5.0f}, {4.0f, 2.0f}});
  const GridSpec grid{map.origin,
                      {map.origin.x + 8.0, map.origin.y + 8.0,
                       map.origin.z + 4.0},
                      {1.0, 1.0, 1.0}};
  const AlignedFeatures aligned = AlignToGrid(map, geom::Pose{}, grid);
  ASSERT_EQ(aligned.map.num_active(), 1u);
  EXPECT_EQ(aligned.map.tensor.features.At(0, 0), 4.0f);
  EXPECT_EQ(aligned.map.tensor.features.At(0, 1), 5.0f);
  // One pseudo point per *surviving* site, not per input site.
  EXPECT_EQ(aligned.pseudo.size(), 1u);
}

TEST(FusionTest, TranslationShiftsSites) {
  const FeatureMap map = MakeMap({{0, 8, 2}}, {{1.0f}});
  const GridSpec grid{map.origin,
                      {map.origin.x + 8.0, map.origin.y + 8.0,
                       map.origin.z + 4.0},
                      map.voxel_size};
  // Sender sits 2 m behind the ego origin along x.
  const geom::Pose ego_from_sender(geom::Mat3::Identity(), {2.0, 0.0, 0.0});
  const AlignedFeatures aligned = AlignToGrid(map, ego_from_sender, grid);
  ASSERT_EQ(aligned.map.num_active(), 1u);
  EXPECT_EQ(aligned.map.tensor.coords[0], (pc::VoxelCoord{4, 8, 2}));
}

TEST(FusionTest, MaxPoolMergesBlockByChannelMax) {
  // All eight corners of the {0,0,0} 2x2x2 block plus one site in the next
  // block along x: pooling at factor 2 keeps two coarse sites.
  std::vector<pc::VoxelCoord> coords;
  std::vector<std::vector<float>> feats;
  float v = 1.0f;
  for (int z = 0; z < 2; ++z) {
    for (int y = 0; y < 2; ++y) {
      for (int x = 0; x < 2; ++x) {
        coords.push_back({x, y, z});
        feats.push_back({v, -v});
        v += 1.0f;
      }
    }
  }
  coords.push_back({2, 0, 0});
  feats.push_back({100.0f, -100.0f});
  const FeatureMap map = MakeMap(coords, feats);
  const FeatureMap pooled = MaxPool(map, 2);
  ASSERT_EQ(pooled.num_active(), 2u);
  EXPECT_EQ(pooled.tensor.coords[0], (pc::VoxelCoord{0, 0, 0}));
  EXPECT_EQ(pooled.tensor.coords[1], (pc::VoxelCoord{1, 0, 0}));
  // Channel-wise max, not first-wins: channel 0 takes the largest corner,
  // channel 1 the least-negative one.
  EXPECT_EQ(pooled.tensor.features.At(0, 0), 8.0f);
  EXPECT_EQ(pooled.tensor.features.At(0, 1), -1.0f);
  EXPECT_EQ(pooled.tensor.features.At(1, 0), 100.0f);
}

TEST(FusionTest, MaxPoolScalesGeometryAndShape) {
  const FeatureMap map = MakeMap({{5, 7, 3}}, {{1.0f}}, {17, 16, 7});
  const FeatureMap pooled = MaxPool(map, 2);
  EXPECT_EQ(pooled.origin.x, map.origin.x);
  EXPECT_EQ(pooled.voxel_size.x, 1.0);
  EXPECT_EQ(pooled.voxel_size.z, 1.0);
  // Shape rounds up so every fine site still falls inside the coarse grid.
  EXPECT_EQ(pooled.tensor.spatial_shape, (pc::VoxelCoord{9, 8, 4}));
  ASSERT_EQ(pooled.num_active(), 1u);
  EXPECT_EQ(pooled.tensor.coords[0], (pc::VoxelCoord{2, 3, 1}));
  // The coarse site's metric center stays within a coarse voxel of the fine
  // site's center — AlignToGrid consumes it with no special casing.
  const geom::Vec3 fine = map.SiteCenter(map.tensor.coords[0]);
  const geom::Vec3 coarse = pooled.SiteCenter(pooled.tensor.coords[0]);
  EXPECT_LE(std::abs(fine.x - coarse.x), pooled.voxel_size.x);
  EXPECT_LE(std::abs(fine.y - coarse.y), pooled.voxel_size.y);
  EXPECT_LE(std::abs(fine.z - coarse.z), pooled.voxel_size.z);
}

TEST(FusionTest, MaxPoolFactorOneIsIdentity) {
  const FeatureMap map = RealVfeMap();
  const FeatureMap pooled = MaxPool(map, 1);
  ASSERT_EQ(pooled.num_active(), map.num_active());
  EXPECT_EQ(pooled.voxel_size.x, map.voxel_size.x);
  for (std::size_t i = 0; i < map.num_active(); ++i) {
    EXPECT_EQ(pooled.tensor.coords[i], map.tensor.coords[i]);
  }
}

TEST(FusionTest, MaxPoolShrinksRealVfeMapAndItsPayload) {
  const FeatureMap map = RealVfeMap();
  const FeatureMap pooled = MaxPool(map, 2);
  ASSERT_GT(map.num_active(), 0u);
  EXPECT_LT(pooled.num_active(), map.num_active());
  const FeatureCodec codec{FeatureCodecConfig{}};
  EXPECT_LT(codec.Encode(pooled).size(), codec.Encode(map).size());
  // Pooled maps still round-trip through the wire codec.
  const auto decoded = codec.Decode(codec.Encode(pooled));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().num_active(), pooled.num_active());
}

// --- Planner ---

CooperatorDemand Demand(std::uint32_t id, DemandClass demand,
                        std::size_t raw, std::size_t roi, std::size_t feature) {
  CooperatorDemand d;
  d.sender_id = id;
  d.demand = demand;
  d.raw_bytes = raw;
  d.roi_bytes = roi;
  d.feature_bytes = feature;
  return d;
}

PlannerConfig FastChannel() {
  PlannerConfig cfg;
  cfg.channel.data_rate_mbps = 6.0;
  cfg.channel.usable_fraction = 0.9;
  cfg.channel.access_latency_ms = 2.0;
  return cfg;
}

TEST(PlannerTest, UnderBudgetKeepsPreferredLevels) {
  const ExchangePlan plan = PlanExchange(
      FastChannel(), {Demand(1, DemandClass::kFullFrame, 2000, 800, 100),
                      Demand(2, DemandClass::kFrontSector, 2000, 800, 100)});
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_EQ(plan.entries[0].level, ExchangeLevel::kRawCloud);
  EXPECT_EQ(plan.entries[1].level, ExchangeLevel::kRoiCloud);
  EXPECT_EQ(plan.degrade_steps, 0u);
  EXPECT_FALSE(plan.over_budget);
  EXPECT_LE(plan.airtime_ms, plan.budget_ms);
}

TEST(PlannerTest, DegradesLargestSavingFirst) {
  PlannerConfig cfg = FastChannel();
  cfg.channel.data_rate_mbps = 0.2;  // squeeze until someone must degrade
  cfg.budget_fraction = 0.5;
  const ExchangePlan plan = PlanExchange(
      cfg, {Demand(1, DemandClass::kFullFrame, 4000, 400, 50),
            Demand(2, DemandClass::kFullFrame, 900, 800, 50)});
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_GT(plan.degrade_steps, 0u);
  // Sender 1's raw->ROI step sheds 3600 bytes, sender 2's only 100: sender 1
  // must have stepped down before sender 2 loses its raw level.
  const PlanEntry* e1 = plan.Find(1);
  ASSERT_NE(e1, nullptr);
  EXPECT_NE(e1->level, ExchangeLevel::kRawCloud);
}

TEST(PlannerTest, TieBreakDegradesHigherSenderFirst) {
  PlannerConfig cfg = FastChannel();
  // Budget fits exactly one raw payload plus one ROI payload: at 0.072
  // effective Mbps, raw+raw costs ~226 ms, raw+ROI ~148 ms, budget 175 ms.
  cfg.channel.data_rate_mbps = 0.08;
  cfg.frame_period_s = 0.5;
  cfg.budget_fraction = 0.35;
  const ExchangePlan plan = PlanExchange(
      cfg, {Demand(1, DemandClass::kFullFrame, 1000, 300, 40),
            Demand(2, DemandClass::kFullFrame, 1000, 300, 40)});
  ASSERT_EQ(plan.entries.size(), 2u);
  const PlanEntry* e1 = plan.Find(1);
  const PlanEntry* e2 = plan.Find(2);
  ASSERT_NE(e1, nullptr);
  ASSERT_NE(e2, nullptr);
  // Identical savings: the higher sender id degrades first, so the single
  // degrade step must have landed on sender 2.
  EXPECT_EQ(plan.degrade_steps, 1u);
  EXPECT_EQ(e1->level, ExchangeLevel::kRawCloud);
  EXPECT_EQ(e2->level, ExchangeLevel::kRoiCloud);
  EXPECT_FALSE(plan.over_budget);
}

TEST(PlannerTest, OverBudgetReportedWhenAllFeaturesOverflow) {
  PlannerConfig cfg = FastChannel();
  cfg.channel.data_rate_mbps = 0.001;  // nothing fits
  const ExchangePlan plan = PlanExchange(
      cfg, {Demand(1, DemandClass::kFullFrame, 4000, 800, 400),
            Demand(2, DemandClass::kForwardLead, 4000, 800, 400)});
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_TRUE(plan.over_budget);
  for (const PlanEntry& e : plan.entries) {
    EXPECT_EQ(e.level, ExchangeLevel::kVoxelFeatures);
  }
  EXPECT_GT(plan.airtime_ms, plan.budget_ms);
}

TEST(PlannerTest, CanonicalisesSenderOrderAndDuplicates) {
  const ExchangePlan plan = PlanExchange(
      FastChannel(), {Demand(5, DemandClass::kFrontSector, 100, 50, 10),
                      Demand(2, DemandClass::kFrontSector, 100, 50, 10),
                      Demand(5, DemandClass::kFullFrame, 900, 700, 300)});
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_EQ(plan.entries[0].sender_id, 2u);
  EXPECT_EQ(plan.entries[1].sender_id, 5u);
  // Duplicate sender keeps the first occurrence (front-sector demand).
  EXPECT_EQ(plan.entries[1].level, ExchangeLevel::kRoiCloud);
  EXPECT_EQ(plan.entries[1].bytes, 50u);
  EXPECT_EQ(plan.Find(7), nullptr);
}

TEST(PlannerTest, AirtimeScalesWithBytesAndFloorsAtAccessLatency) {
  const PlannerConfig cfg = FastChannel();
  EXPECT_DOUBLE_EQ(AirtimeMs(cfg.channel, 0), cfg.channel.access_latency_ms);
  const double one_kb = AirtimeMs(cfg.channel, 1024);
  const double two_kb = AirtimeMs(cfg.channel, 2048);
  EXPECT_GT(one_kb, cfg.channel.access_latency_ms);
  EXPECT_DOUBLE_EQ(two_kb - one_kb, one_kb - cfg.channel.access_latency_ms);
}

TEST(PlannerTest, ZeroBudgetDegradesEveryoneAndReportsOverBudget) {
  PlannerConfig cfg = FastChannel();
  cfg.budget_fraction = 0.0;  // adversarial: no airtime at all
  const ExchangePlan plan = PlanExchange(
      cfg, {Demand(1, DemandClass::kFullFrame, 4000, 800, 100),
            Demand(2, DemandClass::kFrontSector, 4000, 800, 100),
            Demand(3, DemandClass::kForwardLead, 4000, 800, 100)});
  ASSERT_EQ(plan.entries.size(), 3u);
  EXPECT_EQ(plan.budget_ms, 0.0);
  // Nothing fits, so every cooperator bottoms out at features and the plan
  // says so rather than looping or dropping entries.
  EXPECT_TRUE(plan.over_budget);
  for (const PlanEntry& e : plan.entries) {
    EXPECT_EQ(e.level, ExchangeLevel::kVoxelFeatures);
    EXPECT_EQ(e.bytes, 100u);
  }
  EXPECT_GT(plan.airtime_ms, plan.budget_ms);
}

TEST(PlannerTest, AllEqualSavingsDegradeHighestSendersFirst) {
  // Eight identical full-frame cooperators; the budget fits five raw payloads
  // plus three ROI payloads.  Every raw->ROI step sheds the same bytes, so
  // the only thing picking who degrades is the sender-id tie-break: the
  // degrade steps must land on the three *highest* ids, never on an
  // arbitrary (e.g. heap-order) subset.
  PlannerConfig cfg = FastChannel();
  cfg.channel.data_rate_mbps = 0.08;
  cfg.channel.access_latency_ms = 2.0;
  cfg.frame_period_s = 1.0;
  // Raw airtime ~113.1 ms each, ROI ~35.3 ms: 5 raw + 3 ROI ~671 ms.
  cfg.budget_fraction = 0.68;
  std::vector<CooperatorDemand> demands;
  for (std::uint32_t id = 1; id <= 8; ++id) {
    demands.push_back(Demand(id, DemandClass::kFullFrame, 1000, 300, 40));
  }
  const ExchangePlan plan = PlanExchange(cfg, demands);
  ASSERT_EQ(plan.entries.size(), 8u);
  EXPECT_EQ(plan.degrade_steps, 3u);
  EXPECT_FALSE(plan.over_budget);
  for (const PlanEntry& e : plan.entries) {
    EXPECT_EQ(e.level, e.sender_id <= 5 ? ExchangeLevel::kRawCloud
                                        : ExchangeLevel::kRoiCloud)
        << "sender " << e.sender_id;
  }
}

TEST(PlannerTest, HundredCooperatorsShuffledInputPlansIdentically) {
  // Well past any fixed-size assumption (64 is the fleet cap elsewhere in the
  // stack): 100 cooperators with varied sizes and demand classes, squeezed
  // hard enough that most of them degrade.  The plan must be a pure function
  // of the demand *set* — feeding a shuffled copy must reproduce every entry
  // bit for bit, in ascending sender order.
  PlannerConfig cfg = FastChannel();
  cfg.channel.data_rate_mbps = 0.5;
  cfg.budget_fraction = 0.6;
  std::vector<CooperatorDemand> demands;
  for (std::uint32_t id = 1; id <= 100; ++id) {
    const DemandClass demand = id % 3 == 0 ? DemandClass::kFullFrame
                             : id % 3 == 1 ? DemandClass::kFrontSector
                                           : DemandClass::kForwardLead;
    demands.push_back(Demand(id, demand, 800 + 37 * (id % 11),
                             300 + 13 * (id % 7), 40 + (id % 5)));
  }
  std::vector<CooperatorDemand> shuffled = demands;
  Rng rng(99);  // Fisher-Yates with the repo Rng: deterministic shuffle
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.Uniform(0.0, static_cast<double>(i)));
    std::swap(shuffled[i - 1], shuffled[j < i ? j : i - 1]);
  }
  const ExchangePlan sorted_plan = PlanExchange(cfg, demands);
  const ExchangePlan shuffled_plan = PlanExchange(cfg, shuffled);

  ASSERT_EQ(sorted_plan.entries.size(), 100u);
  ASSERT_EQ(shuffled_plan.entries.size(), 100u);
  EXPECT_EQ(sorted_plan.degrade_steps, shuffled_plan.degrade_steps);
  EXPECT_GT(sorted_plan.degrade_steps, 0u);  // the squeeze actually bites
  EXPECT_EQ(sorted_plan.over_budget, shuffled_plan.over_budget);
  EXPECT_EQ(sorted_plan.airtime_ms, shuffled_plan.airtime_ms);  // bit-equal
  for (std::size_t i = 0; i < sorted_plan.entries.size(); ++i) {
    const PlanEntry& a = sorted_plan.entries[i];
    const PlanEntry& b = shuffled_plan.entries[i];
    // Canonical ascending order regardless of input order.
    EXPECT_EQ(a.sender_id, static_cast<std::uint32_t>(i + 1));
    EXPECT_EQ(a.sender_id, b.sender_id);
    EXPECT_EQ(a.level, b.level) << "sender " << a.sender_id;
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.airtime_ms, b.airtime_ms);  // bit-equal, not approximately
  }
}

TEST(PlannerTest, DemandClassMirrorsRoiCategory) {
  EXPECT_EQ(core::DemandClassFor(core::RoiCategory::kFullFrame),
            DemandClass::kFullFrame);
  EXPECT_EQ(core::DemandClassFor(core::RoiCategory::kFrontSector),
            DemandClass::kFrontSector);
  EXPECT_EQ(core::DemandClassFor(core::RoiCategory::kForwardLead),
            DemandClass::kForwardLead);
  const CooperatorDemand d = core::MakeCooperatorDemand(
      9, core::RoiCategory::kFullFrame, 300, 200, 100);
  EXPECT_EQ(d.sender_id, 9u);
  EXPECT_EQ(d.BytesAt(ExchangeLevel::kRawCloud), 300u);
  EXPECT_EQ(d.BytesAt(ExchangeLevel::kRoiCloud), 200u);
  EXPECT_EQ(d.BytesAt(ExchangeLevel::kVoxelFeatures), 100u);
}

}  // namespace
}  // namespace cooper::feat
