#include "replay/replayer.h"

#include <utility>

#include "eval/experiment.h"
#include "replay/recorder.h"

namespace cooper::replay {

Result<Trace> ParseTrace(const std::vector<std::uint8_t>& bytes) {
  TraceReader reader(bytes);
  COOPER_RETURN_IF_ERROR(reader.ReadHeader());

  Trace trace;
  bool have_config = false;
  bool have_end = false;
  bool pending_digest = false;  // a kDetect awaits its kStepDigest
  std::uint32_t detect_count = 0;

  while (!reader.AtEnd()) {
    if (have_end) return DataLossError("records after the end record");
    COOPER_ASSIGN_OR_RETURN(Record record, reader.Next());
    if (!have_config && record.tag != RecordTag::kConfig) {
      return DataLossError("first record is not a config record");
    }
    if (pending_digest && record.tag != RecordTag::kStepDigest) {
      return DataLossError("detect record not followed by its step digest");
    }
    switch (record.tag) {
      case RecordTag::kConfig: {
        if (have_config) return DataLossError("duplicate config record");
        COOPER_ASSIGN_OR_RETURN(trace.config, DecodeConfig(record.payload));
        have_config = true;
        break;
      }
      case RecordTag::kScan: {
        COOPER_ASSIGN_OR_RETURN(auto scan, DecodeScan(record.payload));
        if (trace.scans.count(scan.first) != 0) {
          return DataLossError("duplicate scan id " +
                               std::to_string(scan.first));
        }
        trace.scans.emplace(scan.first, std::move(scan.second));
        break;
      }
      case RecordTag::kDetect: {
        COOPER_ASSIGN_OR_RETURN(DetectRecord detect,
                                DecodeDetect(record.payload));
        if (trace.scans.count(detect.scan_id) == 0) {
          return DataLossError("detect references unknown scan id " +
                               std::to_string(detect.scan_id));
        }
        TraceEvent event;
        event.kind = TraceEvent::Kind::kDetect;
        event.time_s = detect.timestamp_s;
        event.detect = detect;
        trace.events.push_back(std::move(event));
        pending_digest = true;
        ++detect_count;
        break;
      }
      case RecordTag::kStepDigest: {
        if (!pending_digest) {
          return DataLossError("step digest without a preceding detect");
        }
        COOPER_ASSIGN_OR_RETURN(trace.events.back().golden,
                                DecodeStepDigest(record.payload));
        pending_digest = false;
        break;
      }
      case RecordTag::kWireFrame:
      case RecordTag::kWirePackage:
      case RecordTag::kFeaturePackage: {
        COOPER_ASSIGN_OR_RETURN(auto wire, DecodeWireBytes(record.payload));
        TraceEvent event;
        event.kind = record.tag == RecordTag::kWireFrame
                         ? TraceEvent::Kind::kWireFrame
                         : (record.tag == RecordTag::kWirePackage
                                ? TraceEvent::Kind::kWirePackage
                                : TraceEvent::Kind::kFeaturePackage);
        event.time_s = wire.first;
        event.bytes = std::move(wire.second);
        trace.events.push_back(std::move(event));
        break;
      }
      case RecordTag::kFaultEvent: {
        COOPER_ASSIGN_OR_RETURN(FaultEventRecord fe,
                                DecodeFaultEvent(record.payload));
        trace.fault_events.push_back(fe);
        break;
      }
      case RecordTag::kEnd: {
        COOPER_ASSIGN_OR_RETURN(trace.end, DecodeEnd(record.payload));
        have_end = true;
        break;
      }
      case RecordTag::kServeEvent: {
        // Serve traces carry their own verifier (serve::VerifyLoadTrace);
        // the pipeline replayer only validates the record and moves on so a
        // mixed trace still parses.
        COOPER_ASSIGN_OR_RETURN(ServeEventRecord serve_event,
                                DecodeServeEvent(record.payload));
        (void)serve_event;
        break;
      }
    }
  }
  if (!have_config) return DataLossError("trace holds no config record");
  if (pending_digest) return DataLossError("trace ends inside a detect step");
  if (!have_end) return DataLossError("trace has no end record (truncated?)");
  if (trace.end.step_count != detect_count) {
    return DataLossError("end record step count disagrees with trace body");
  }
  return trace;
}

core::CooperConfig MakeReplayCooperConfig(const TraceConfig& config,
                                          const ReplayOverrides& overrides) {
  core::CooperConfig cfg = eval::MakeCooperConfig(config.lidar);
  cfg.icp_refinement = config.icp_refinement;
  cfg.detector_weight_seed = config.detector_weight_seed;
  cfg.num_threads = overrides.num_threads.value_or(config.num_threads);
  cfg.observability = overrides.observability.value_or(config.observability);
  cfg.simd = overrides.simd.value_or("auto");
  return cfg;
}

core::SessionConfig MakeReplaySessionConfig(const TraceConfig& config,
                                            const ReplayOverrides& overrides) {
  core::SessionConfig session;
  session.max_package_age_s = config.max_package_age_s;
  session.max_future_skew_s = config.max_future_skew_s;
  session.max_cooperators = config.max_cooperators;
  session.cache_reconstructions =
      overrides.cache_reconstructions.value_or(config.cache_reconstructions);
  return session;
}

ReplayResult Replay(const Trace& trace, const ReplayOverrides& overrides) {
  const core::CooperConfig cfg = MakeReplayCooperConfig(trace.config, overrides);
  const core::SessionConfig session_cfg =
      MakeReplaySessionConfig(trace.config, overrides);
  core::CooperativeSession session(cfg, session_cfg);

  ReplayResult result;
  result.matches_golden = true;
  std::uint64_t combined = 0xcbf29ce484222325ull;

  for (const TraceEvent& event : trace.events) {
    switch (event.kind) {
      case TraceEvent::Kind::kWireFrame:
        // A status failure here reproduces one the live run also absorbed
        // (corrupt frame, expired partial); the session counts it and moves
        // on, exactly as it did when the trace was recorded.
        (void)session.ReceiveFrame(event.bytes, event.time_s);
        break;
      case TraceEvent::Kind::kWirePackage:
      case TraceEvent::Kind::kFeaturePackage:
        // Feature-level packages enter at the same ReceiveWire boundary —
        // the session dispatches on the package's own level byte; the
        // distinct record tag exists for tooling attribution.
        (void)session.ReceiveWire(event.bytes, event.time_s);
        break;
      case TraceEvent::Kind::kDetect: {
        const pc::PointCloud& scan = trace.scans.at(event.detect.scan_id);
        core::CooperOutput out =
            session.DetectCooperative(scan, event.detect.nav, event.time_s);
        StepOutcome step;
        step.golden = event.golden;
        step.computed = MakeStepDigest(event.time_s, out, cfg.detector);
        step.detections = std::move(out.fused.detections);
        step.matches_golden =
            step.computed.num_detections == step.golden.num_detections &&
            step.computed.detections_digest == step.golden.detections_digest &&
            step.computed.fused_points == step.golden.fused_points &&
            step.computed.fused_digest == step.golden.fused_digest &&
            step.computed.num_voxels == step.golden.num_voxels &&
            step.computed.transmitter_points == step.golden.transmitter_points;
        result.matches_golden = result.matches_golden && step.matches_golden;
        combined = ChainStepDigest(combined, step.computed);
        result.steps.push_back(std::move(step));
        break;
      }
    }
  }
  result.combined_digest = combined;
  if (combined != trace.end.combined_digest ||
      result.steps.size() != trace.end.step_count) {
    result.matches_golden = false;
  }
  result.session_stats = session.stats();
  return result;
}

}  // namespace cooper::replay
