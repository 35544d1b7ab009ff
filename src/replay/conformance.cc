#include "replay/conformance.h"

#include <cstdio>
#include <cstring>

namespace cooper::replay {

namespace {

std::uint64_t BitsOf(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}

FieldDiff MakeDiff(std::size_t step, const char* stage, std::string field,
                   double baseline, double cell) {
  FieldDiff d;
  d.step = step;
  d.stage = stage;
  d.field = std::move(field);
  d.baseline_value = baseline;
  d.cell_value = cell;
  d.baseline_bits = BitsOf(baseline);
  d.cell_bits = BitsOf(cell);
  return d;
}

/// Compares one double field bit-for-bit; fills `out` on the first mismatch.
bool DiffField(std::size_t step, const char* stage, const std::string& field,
               double baseline, double cell, std::optional<FieldDiff>* out) {
  if (BitsOf(baseline) == BitsOf(cell)) return false;
  *out = MakeDiff(step, stage, field, baseline, cell);
  return true;
}

bool DiffCount(std::size_t step, const char* stage, const std::string& field,
               std::uint64_t baseline, std::uint64_t cell,
               std::optional<FieldDiff>* out) {
  if (baseline == cell) return false;
  *out = MakeDiff(step, stage, field, static_cast<double>(baseline),
                  static_cast<double>(cell));
  return true;
}

}  // namespace

std::string CellName(const MatrixCell& cell) {
  std::string name = "t" + std::to_string(cell.num_threads);
  name += cell.cache_reconstructions ? ",cache" : ",nocache";
  name += cell.observability ? ",obs" : ",noobs";
  name += "," + cell.simd;
  return name;
}

std::vector<MatrixCell> FullMatrix(int many_threads) {
  std::vector<MatrixCell> cells;
  for (const bool obs : {false, true}) {  // sticky flag: off-cells first
    for (const int threads : {1, many_threads}) {
      for (const bool cache : {true, false}) {
        cells.push_back(MatrixCell{threads, cache, obs});
      }
    }
    if (obs) continue;
    // Forced-scalar vs auto-dispatch: scalar cells at both thread counts.
    // The baseline replays under auto dispatch, so any bit produced
    // differently by a vector kernel diverges here.  Emitted before the
    // obs=on block so every obs-off cell still precedes the sticky flip.
    for (const int threads : {1, many_threads}) {
      MatrixCell scalar;
      scalar.num_threads = threads;
      scalar.simd = "scalar";
      cells.push_back(scalar);
    }
  }
  return cells;
}

std::vector<MatrixCell> SmokeMatrix(int many_threads) {
  std::vector<MatrixCell> cells;
  cells.push_back(MatrixCell{});  // library defaults
  MatrixCell threads;
  threads.num_threads = many_threads;
  cells.push_back(threads);
  MatrixCell nocache;
  nocache.cache_reconstructions = false;
  cells.push_back(nocache);
  MatrixCell obs;
  obs.observability = true;
  cells.push_back(obs);
  MatrixCell scalar;
  scalar.simd = "scalar";
  cells.push_back(scalar);
  return cells;
}

std::string FormatDiff(const FieldDiff& diff) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "step %zu stage %s: %s baseline %.17g (0x%016llx) vs cell "
                "%.17g (0x%016llx)",
                diff.step, diff.stage.c_str(), diff.field.c_str(),
                diff.baseline_value,
                static_cast<unsigned long long>(diff.baseline_bits),
                diff.cell_value,
                static_cast<unsigned long long>(diff.cell_bits));
  return buf;
}

std::optional<FieldDiff> DiffReplays(const ReplayResult& baseline,
                                     const ReplayResult& cell) {
  std::optional<FieldDiff> diff;
  const std::size_t steps = std::min(baseline.steps.size(), cell.steps.size());
  for (std::size_t s = 0; s < steps; ++s) {
    const StepOutcome& b = baseline.steps[s];
    const StepOutcome& c = cell.steps[s];
    // Stage order mirrors the pipeline: a reconstruct-stage divergence makes
    // every later stage diverge too, so report the earliest.
    if (DiffCount(s, "reconstruct", "transmitter_points",
                  b.computed.transmitter_points, c.computed.transmitter_points,
                  &diff)) {
      return diff;
    }
    if (DiffCount(s, "merge", "fused_points", b.computed.fused_points,
                  c.computed.fused_points, &diff)) {
      return diff;
    }
    if (DiffCount(s, "merge", "fused_digest", b.computed.fused_digest,
                  c.computed.fused_digest, &diff)) {
      return diff;
    }
    if (DiffCount(s, "voxelize", "num_voxels", b.computed.num_voxels,
                  c.computed.num_voxels, &diff)) {
      return diff;
    }
    if (DiffCount(s, "detect", "num_detections", b.detections.size(),
                  c.detections.size(), &diff)) {
      return diff;
    }
    for (std::size_t i = 0; i < b.detections.size(); ++i) {
      const spod::Detection& bd = b.detections[i];
      const spod::Detection& cd = c.detections[i];
      const std::string at = "detections[" + std::to_string(i) + "].";
      if (DiffField(s, "detect", at + "box.center.x", bd.box.center.x,
                    cd.box.center.x, &diff) ||
          DiffField(s, "detect", at + "box.center.y", bd.box.center.y,
                    cd.box.center.y, &diff) ||
          DiffField(s, "detect", at + "box.center.z", bd.box.center.z,
                    cd.box.center.z, &diff) ||
          DiffField(s, "detect", at + "box.length", bd.box.length,
                    cd.box.length, &diff) ||
          DiffField(s, "detect", at + "box.width", bd.box.width, cd.box.width,
                    &diff) ||
          DiffField(s, "detect", at + "box.height", bd.box.height,
                    cd.box.height, &diff) ||
          DiffField(s, "detect", at + "box.yaw", bd.box.yaw, cd.box.yaw,
                    &diff) ||
          DiffField(s, "detect", at + "score", bd.score, cd.score, &diff) ||
          DiffCount(s, "detect", at + "cls",
                    static_cast<std::uint64_t>(bd.cls),
                    static_cast<std::uint64_t>(cd.cls), &diff) ||
          DiffCount(s, "detect", at + "num_points", bd.num_points,
                    cd.num_points, &diff)) {
        return diff;
      }
    }
    // Detections identical but the digest disagrees: impossible unless the
    // digest itself regressed — still surface it.
    if (DiffCount(s, "detect", "detections_digest",
                  b.computed.detections_digest, c.computed.detections_digest,
                  &diff)) {
      return diff;
    }
  }
  if (baseline.steps.size() != cell.steps.size()) {
    return MakeDiff(steps, "detect", "step_count",
                    static_cast<double>(baseline.steps.size()),
                    static_cast<double>(cell.steps.size()));
  }
  return std::nullopt;
}

ConformanceReport RunConformance(const Trace& trace,
                                 const std::vector<MatrixCell>& cells) {
  ConformanceReport report;
  report.baseline = Replay(trace, ReplayOverrides{});
  report.all_identical = true;
  report.all_match_golden = report.baseline.matches_golden;

  for (const MatrixCell& cell : cells) {
    ReplayOverrides overrides;
    overrides.num_threads = cell.num_threads;
    overrides.cache_reconstructions = cell.cache_reconstructions;
    overrides.observability = cell.observability;
    overrides.simd = cell.simd;
    const ReplayResult replay = Replay(trace, overrides);

    CellResult result;
    result.cell = cell;
    result.matches_golden = replay.matches_golden;
    result.diff = DiffReplays(report.baseline, replay);
    result.identical_to_baseline = !result.diff.has_value();
    report.all_identical = report.all_identical && result.identical_to_baseline;
    report.all_match_golden = report.all_match_golden && result.matches_golden;
    report.cells.push_back(std::move(result));
  }
  return report;
}

}  // namespace cooper::replay
