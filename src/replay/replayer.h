// Trace replayer: feeds a recorded trace back through a fresh
// CooperativeSession and checks every step against its golden digest.
//
// Replay never re-runs the simulator, the channel or the fault injector —
// those already happened; the trace holds their outputs (raw scans and
// post-fault wire bytes).  What replay *does* re-run is everything the
// Cooper receiver computes: reassembly, package validation, reconstruction
// (Eq. 1-3 + optional ICP), fusion and SPOD.  Bit-reproducibility means the
// recomputed detections must hash to the recorded digests exactly — on any
// machine, at any thread count, with any cache configuration.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "replay/trace.h"

namespace cooper::replay {

/// One entry of the trace's time-ordered event stream.
struct TraceEvent {
  enum class Kind { kWireFrame, kWirePackage, kFeaturePackage, kDetect };
  Kind kind = Kind::kWireFrame;
  double time_s = 0.0;                // receive time / detect timestamp
  std::vector<std::uint8_t> bytes;    // wire events
  DetectRecord detect;                // detect events
  StepDigest golden;                  // detect events: the recorded digest
};

/// A fully parsed and structurally validated trace.
struct Trace {
  TraceConfig config;
  std::map<std::uint32_t, pc::PointCloud> scans;  // by scan id
  std::vector<TraceEvent> events;                 // in recorded order
  std::vector<FaultEventRecord> fault_events;     // attribution only
  EndRecord end;
};

/// Decodes and validates a whole trace image.  Structural rules: valid
/// header; first record kConfig; every kDetect immediately followed by its
/// kStepDigest; kDetect references a previously recorded scan; exactly one
/// kEnd, last, with a step count matching the kDetect count.  Any violation
/// — like any framing or CRC error — is a clean DATA_LOSS status.
Result<Trace> ParseTrace(const std::vector<std::uint8_t>& bytes);

/// Config-matrix overrides: unset fields replay the recorded knob.
struct ReplayOverrides {
  std::optional<int> num_threads;
  std::optional<bool> cache_reconstructions;
  std::optional<bool> observability;
  // SIMD dispatch ("auto" | "scalar" | "sse4.2" | "avx2" | "neon").  The
  // dispatch tier is deliberately NOT part of the recorded trace config —
  // tiers are bit-identical by contract, so a trace recorded on an AVX2
  // machine must replay exactly on a scalar-only one.  Unset replays "auto".
  std::optional<std::string> simd;
};

/// The pipeline/session configs a trace (plus overrides) replays under.
/// Exposed so the CLI's `info` can print the effective configuration.
core::CooperConfig MakeReplayCooperConfig(const TraceConfig& config,
                                          const ReplayOverrides& overrides);
core::SessionConfig MakeReplaySessionConfig(const TraceConfig& config,
                                            const ReplayOverrides& overrides);

/// One replayed fusion step: the recorded golden, the recomputed digest, and
/// the recomputed outputs kept for differential diffing.
struct StepOutcome {
  StepDigest golden;
  StepDigest computed;
  std::vector<spod::Detection> detections;
  bool matches_golden = false;
};

struct ReplayResult {
  std::vector<StepOutcome> steps;
  std::uint64_t combined_digest = 0;  // over the recomputed step digests
  bool matches_golden = false;        // every step + the end record
  core::SessionStats session_stats;
};

/// Replays a parsed trace under the recorded config with `overrides`
/// applied.  Wire errors (corrupt frames the recording also saw) are
/// expected and absorbed by the session exactly as they were live.
ReplayResult Replay(const Trace& trace, const ReplayOverrides& overrides = {});

}  // namespace cooper::replay
