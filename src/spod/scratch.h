// Cross-frame working set for the SPOD hot path.
//
// Steady-state detection runs the same stages on same-sized data every
// frame; the scratch keeps each stage's working storage (hash indices,
// union-find, candidate buffers) alive between frames, cleared — not freed —
// so repeat frames allocate near zero (see DESIGN.md "Kernel execution &
// memory").
//
// Ownership rules: one scratch per detector/pipeline instance; it may be
// shared by successive Detect calls but never by concurrent ones.  Every
// consumer produces bit-identical results with or without its scratch, so
// the scratch only changes allocation behaviour, never detections.
#pragma once

#include <vector>

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
  pc::VoxelGridScratch voxel_grid;     // feature tap's shard grids
  ClusterScratch cluster;              // cell index, union-find
  std::vector<DetectorCandidate> candidates;  // proposal buffer
  std::vector<DetectorCandidate> kept;        // NMS survivors
};

}  // namespace cooper::spod
