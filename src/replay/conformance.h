// Differential conformance: one trace, many configurations, zero tolerance.
//
// The baseline replay runs the trace under its recorded configuration; every
// matrix cell replays the identical byte stream with one or more knobs
// flipped (thread count, reconstruction cache, observability, SIMD
// dispatch).  Cooper's reproducibility contract says none of those
// knobs may change a single output bit, so the runner compares cells to the
// baseline per step, per stage, per detection, per field — and reports the
// *first* diverging value with both float bit patterns, which pins the
// divergence to a stage (reconstruct / voxelize / merge / detect) instead of
// a vague "digests differ".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "replay/replayer.h"

namespace cooper::replay {

/// One configuration under test.  Defaults mirror the library defaults.
struct MatrixCell {
  int num_threads = 1;
  bool cache_reconstructions = true;
  bool observability = false;
  // SIMD dispatch mode for the cell ("auto" forces nothing; "scalar" pins
  // the reference tier).  Forced-scalar cells diff against the auto-dispatch
  // baseline, so one diverging bit between vector and scalar kernels fails
  // the matrix with the exact field named.
  std::string simd = "auto";
};

/// Compact cell label: "t4,cache,obs,scalar".
std::string CellName(const MatrixCell& cell);

/// Full cross product: {1, N} threads x cache x obs (8 cells), plus
/// forced-scalar cells at both thread counts (10 total).  Observability-off
/// cells come first: the obs flag is sticky process-wide, so once an obs
/// cell has run, later cells execute with instrumentation live — harmless
/// for outputs (that is the contract under test) but kept ordered for
/// faithful off-cells while they last.
std::vector<MatrixCell> FullMatrix(int many_threads = 4);

/// One-factor-at-a-time matrix (5 cells): the recorded defaults plus one
/// cell per flipped knob, including a forced-scalar dispatch cell.  Cheap
/// enough for sanitizer runs.
std::vector<MatrixCell> SmokeMatrix(int many_threads = 4);

/// First diverging value between the baseline replay and one cell.
struct FieldDiff {
  std::size_t step = 0;          // fusion step index
  std::string stage;             // "reconstruct" | "voxelize" | "merge" | "detect"
  std::string field;             // e.g. "detections[2].box.center.x"
  double baseline_value = 0.0;   // as doubles (counts widen losslessly)
  double cell_value = 0.0;
  std::uint64_t baseline_bits = 0;
  std::uint64_t cell_bits = 0;
};

/// Human-readable one-line rendering of a diff.
std::string FormatDiff(const FieldDiff& diff);

struct CellResult {
  MatrixCell cell;
  bool identical_to_baseline = false;
  bool matches_golden = false;
  std::optional<FieldDiff> diff;  // set when not identical
};

struct ConformanceReport {
  ReplayResult baseline;          // recorded config, no overrides
  std::vector<CellResult> cells;
  bool all_identical = false;     // every cell bit-matched the baseline
  bool all_match_golden = false;  // baseline and every cell match the digests
};

/// Replays `trace` under the recorded config, then under every cell, and
/// diffs each cell against the baseline.
ConformanceReport RunConformance(const Trace& trace,
                                 const std::vector<MatrixCell>& cells);

/// Baseline-vs-cell comparison, exposed for tests: locates the first
/// diverging float/count across the per-step outputs.
std::optional<FieldDiff> DiffReplays(const ReplayResult& baseline,
                                     const ReplayResult& cell);

}  // namespace cooper::replay
