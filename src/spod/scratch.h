// Cross-frame working set for the SPOD hot path.
//
// Steady-state detection runs the same stages on same-sized data every
// frame; the scratch keeps each stage's working storage (hash indices,
// rulebooks, part vectors, feature maps, candidate buffers) alive between
// frames, cleared — not freed — so repeat frames allocate near zero (see
// DESIGN.md "Kernel execution & memory").
//
// Ownership rules: one scratch per detector/pipeline instance; it may be
// shared by successive Detect calls but never by concurrent ones.  Every
// consumer produces bit-identical results with or without its scratch, so
// disabling reuse (`SpodConfig::reuse_scratch = false`) only changes
// allocation behaviour, never detections.
#pragma once

#include <vector>

#include "nn/sparse_conv.h"
#include "nn/tensor.h"
#include "pointcloud/voxel_grid.h"
#include "spod/clustering.h"
#include "spod/detection.h"

namespace cooper::spod {

/// One scored proposal: the detection and the cluster points backing it
/// (kept so NMS/pairing can merge point evidence and refit).
struct DetectorCandidate {
  Detection det;
  pc::PointCloud points;
};

struct PipelineScratch {
  pc::VoxelGridScratch voxel_grid;     // chunk-local shard grids
  nn::SparseConvScratch sparse_conv;   // rulebook cache + index maps
  ClusterScratch cluster;              // cell index, union-find
  nn::Tensor bev;                      // SparseToBev output
  nn::Tensor rpn1, rpn2;               // RPN feature maps
  std::vector<DetectorCandidate> candidates;  // proposal buffer
  std::vector<DetectorCandidate> kept;        // NMS survivors
};

}  // namespace cooper::spod
