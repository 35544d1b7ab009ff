#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "nn/vfe.h"

namespace cooper::nn {
namespace {

// --- Tensor ---

TEST(TensorTest, ShapeAndFill) {
  Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t.At(1, 2), 1.5f);
}

TEST(TensorTest, IndexedAccessLayouts) {
  Tensor t({3, 4});
  t.At(2, 1) = 7.0f;
  EXPECT_FLOAT_EQ(t[2 * 4 + 1], 7.0f);
  const Tensor& ct = t;
  EXPECT_FLOAT_EQ(ct.At(2, 1), 7.0f);
}

TEST(TensorTest, ReluClampsNegatives) {
  Tensor t({3});
  t[0] = -1.0f;
  t[1] = 0.0f;
  t[2] = 2.0f;
  t.Relu();
  EXPECT_FLOAT_EQ(t[0], 0.0f);
  EXPECT_FLOAT_EQ(t[2], 2.0f);
}

// --- Dense layers ---

TEST(LinearTest, OutputShapeAndDeterminism) {
  Rng r1(42), r2(42);
  const Linear l1(4, 8, r1), l2(4, 8, r2);
  Tensor x({3, 4}, 0.5f);
  const Tensor y1 = l1.Forward(x), y2 = l2.Forward(x);
  ASSERT_EQ(y1.dim(0), 3u);
  ASSERT_EQ(y1.dim(1), 8u);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(LinearTest, IdentityWeights) {
  Rng rng(1);
  Linear l(2, 2, rng);
  // Overwrite with identity.
  l.weight().At(0, 0) = 1;
  l.weight().At(0, 1) = 0;
  l.weight().At(1, 0) = 0;
  l.weight().At(1, 1) = 1;
  l.bias()[0] = 10;
  l.bias()[1] = -10;
  Tensor x({1, 2});
  x.At(0, 0) = 3;
  x.At(0, 1) = 4;
  const Tensor y = l.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 13.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1), -6.0f);
}

// --- VFE ---

TEST(VfeTest, EncodesOneFeatureRowPerVoxel) {
  Rng rng(10);
  const VoxelFeatureEncoder vfe(8, rng);
  pc::PointCloud cloud;
  cloud.Add({0.5, 0.5, 0.5}, 0.3f);
  cloud.Add({0.6, 0.5, 0.5}, 0.4f);
  cloud.Add({5.5, 5.5, 0.5}, 0.5f);
  pc::VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {10, 10, 2};
  cfg.voxel_size = {1, 1, 1};
  const pc::VoxelGrid grid(cloud, cfg);
  const SparseTensor out = vfe.Encode(cloud, grid);
  EXPECT_EQ(out.num_active(), 2u);
  EXPECT_EQ(out.channels(), 8u);
  EXPECT_EQ(out.spatial_shape.x, 10);
}

TEST(VfeTest, FeaturesAreNonNegativeAfterRelu) {
  Rng rng(11);
  const VoxelFeatureEncoder vfe(16, rng);
  pc::PointCloud cloud;
  for (int i = 0; i < 50; ++i) {
    cloud.Add({0.1 * i, 0.5, 0.5}, 0.1f * (i % 10));
  }
  pc::VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {10, 10, 2};
  cfg.voxel_size = {1, 1, 1};
  const SparseTensor out = vfe.Encode(cloud, pc::VoxelGrid(cloud, cfg));
  for (std::size_t i = 0; i < out.features.size(); ++i) {
    EXPECT_GE(out.features[i], 0.0f);
  }
}

TEST(VfeTest, DeterministicAcrossInstancesWithSameSeed) {
  pc::PointCloud cloud;
  cloud.Add({1.5, 1.5, 0.5}, 0.7f);
  cloud.Add({1.6, 1.4, 0.6}, 0.2f);
  pc::VoxelGridConfig cfg;
  cfg.min_bound = {0, 0, 0};
  cfg.max_bound = {4, 4, 2};
  cfg.voxel_size = {1, 1, 1};
  const pc::VoxelGrid grid(cloud, cfg);
  Rng r1(77), r2(77);
  const SparseTensor a = VoxelFeatureEncoder(8, r1).Encode(cloud, grid);
  const SparseTensor b = VoxelFeatureEncoder(8, r2).Encode(cloud, grid);
  ASSERT_EQ(a.features.size(), b.features.size());
  for (std::size_t i = 0; i < a.features.size(); ++i) {
    EXPECT_FLOAT_EQ(a.features[i], b.features[i]);
  }
}

}  // namespace
}  // namespace cooper::nn
