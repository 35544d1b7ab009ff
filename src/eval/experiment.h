// End-to-end experiment runner: one cooperative-perception case.
//
// Reproduces the paper's measurement procedure: scan at two viewpoints, run
// SPOD on each single shot and on the fused cloud (built through the full
// Cooper path — ROI extraction, codec, exchange package, Eq. 1-3
// reconstruction with *measured* GPS/IMU), and score every ground-truth car
// against all three detection sets.  Figs. 3-10 all derive from the
// resulting `CaseOutcome` records.
#pragma once

#include <string>
#include <vector>

#include "core/cooper.h"
#include "eval/matching.h"
#include "sim/scenario.h"

namespace cooper::eval {

struct ExperimentOptions {
  sim::GpsSkewMode skew = sim::GpsSkewMode::kNone;  // applied to transmitter
  bool use_measured_nav = true;   // false: perfect (ground-truth) poses
  core::RoiCategory roi = core::RoiCategory::kFullFrame;
  double detection_range = 55.0;  // a GT car farther than this from a
                                  // viewpoint is "out of detection area"
  // The paper evaluates the LiDAR data of the front-view area "to correspond
  // with [the] 120-degree front view image"; each scan is cropped to this
  // sector and a GT car outside it is out of detection area for that
  // viewpoint.  Set <= 0 to evaluate the full 360-degree scan.
  double front_half_fov_deg = 60.0;
  std::uint64_t seed_offset = 0;  // perturb the scan RNG stream
};

struct TargetOutcome {
  int target_id = 0;
  double range_a = 0.0, range_b = 0.0;  // BEV range from each viewpoint
  bool in_range_a = false, in_range_b = false;
  // Matched detection scores (0 when unmatched).
  double score_a = 0.0, score_b = 0.0, score_coop = 0.0;
  bool detected_a = false, detected_b = false, detected_coop = false;
};

struct CaseOutcome {
  std::string scenario_name;
  std::string case_name;    // e.g. "t1+t2" or "car1+car3"
  std::string single_a, single_b;  // viewpoint names
  double delta_d = 0.0;
  std::vector<TargetOutcome> targets;
  spod::SpodResult result_a, result_b, result_coop;
  std::size_t package_payload_bytes = 0;  // compressed ROI payload
  std::size_t points_a = 0, points_b = 0;
};

/// Runs one case of a scenario under the given options.
CaseOutcome RunCoopCase(const sim::Scenario& scenario, const sim::CoopCase& cc,
                        const ExperimentOptions& options = {});

/// Runs every case of every scenario (convenience for pooled statistics).
std::vector<CaseOutcome> RunAllCases(const std::vector<sim::Scenario>& scenarios,
                                     const ExperimentOptions& options = {});

/// Cooper pipeline configured for a scenario's sensor.
core::CooperConfig MakeCooperConfig(const sim::LidarConfig& lidar);

/// Score threshold used for detected/missed calls (paper's "X" cells).
inline constexpr double kScoreThreshold = 0.50;

}  // namespace cooper::eval
