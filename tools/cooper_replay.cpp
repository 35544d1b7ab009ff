// cooper_replay — record, inspect, verify and diff deterministic traces.
//
//   cooper_replay record <case> <out.trace>   re-record a golden case
//   cooper_replay info <trace>                print config + record summary
//   cooper_replay verify <trace> [--matrix=full|smoke|none] [--threads=N]
//                                             replay against the embedded
//                                             golden digests, then run the
//                                             differential config matrix
//   cooper_replay diff <trace> [--threads=N] [--nocache] [--obs]
//                                             replay once with the given
//                                             overrides and report the first
//                                             diverging float vs baseline
//
// Exit status: 0 on bit-identical success, 1 on any divergence or error.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "replay/conformance.h"
#include "replay/golden.h"
#include "replay/replayer.h"

namespace {

using namespace cooper;          // NOLINT(google-build-using-namespace)
using namespace cooper::replay;  // NOLINT(google-build-using-namespace)

int Usage() {
  std::fprintf(stderr,
               "usage: cooper_replay record <tj2|lossy4|feat2> <out.trace>\n"
               "       cooper_replay info <trace>\n"
               "       cooper_replay verify <trace> [--matrix=full|smoke|none]"
               " [--threads=N]\n"
               "       cooper_replay diff <trace> [--threads=N] [--nocache]"
               " [--obs]\n");
  return 1;
}

bool ParseIntFlag(const std::string& arg, const char* name, int* out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = std::atoi(arg.c_str() + prefix.size());
  return true;
}

Result<Trace> LoadTrace(const std::string& path) {
  COOPER_ASSIGN_OR_RETURN(auto bytes, ReadTraceFile(path));
  return ParseTrace(bytes);
}

int CmdRecord(const std::vector<std::string>& args) {
  if (args.size() != 2) return Usage();
  auto bytes = RecordGolden(args[0]);
  if (!bytes.ok()) {
    std::fprintf(stderr, "record failed: %s\n",
                 bytes.status().ToString().c_str());
    return 1;
  }
  std::FILE* f = std::fopen(args[1].c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args[1].c_str());
    return 1;
  }
  const std::size_t written =
      std::fwrite(bytes->data(), 1, bytes->size(), f);
  std::fclose(f);
  if (written != bytes->size()) {
    std::fprintf(stderr, "short write to %s\n", args[1].c_str());
    return 1;
  }
  std::printf("wrote %s: %zu bytes\n", args[1].c_str(), bytes->size());
  return 0;
}

int CmdInfo(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  auto trace = LoadTrace(args[0]);
  if (!trace.ok()) {
    std::fprintf(stderr, "unreadable trace: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }
  const TraceConfig& c = trace->config;
  std::printf("trace:            %s\n", c.name.c_str());
  std::printf("lidar:            %d beams, %d azimuth steps\n", c.lidar.beams,
              c.lidar.azimuth_steps);
  std::printf("session:          age<=%.2fs skew<=%.2fs cap=%u cache=%d\n",
              c.max_package_age_s, c.max_future_skew_s, c.max_cooperators,
              c.cache_reconstructions ? 1 : 0);
  std::printf("pipeline:         threads=%d obs=%d icp=%d weight_seed=%llu\n",
              c.num_threads, c.observability ? 1 : 0,
              c.icp_refinement ? 1 : 0,
              static_cast<unsigned long long>(c.detector_weight_seed));
  std::printf("seeds:            scan=%llu fault=%llu\n",
              static_cast<unsigned long long>(c.scan_seed),
              static_cast<unsigned long long>(c.fault_seed));
  std::printf("faults:           drop=%.2f dup=%.2f reorder=%.2f corrupt=%.2f "
              "truncate=%.2f delay=%.2f\n",
              c.faults.drop_prob, c.faults.duplicate_prob,
              c.faults.reorder_prob, c.faults.corrupt_prob,
              c.faults.truncate_prob, c.faults.delay_prob);
  std::size_t scan_points = 0;
  for (const auto& [id, cloud] : trace->scans) scan_points += cloud.size();
  std::size_t wire_frames = 0, wire_packages = 0, feature_packages = 0;
  for (const auto& event : trace->events) {
    wire_frames += event.kind == TraceEvent::Kind::kWireFrame ? 1 : 0;
    wire_packages += event.kind == TraceEvent::Kind::kWirePackage ? 1 : 0;
    feature_packages +=
        event.kind == TraceEvent::Kind::kFeaturePackage ? 1 : 0;
  }
  std::printf("records:          %zu scans (%zu points), %zu wire frames, "
              "%zu wire packages, %zu feature packages, %zu fault events\n",
              trace->scans.size(), scan_points, wire_frames, wire_packages,
              feature_packages, trace->fault_events.size());
  std::printf("steps:            %u, combined digest 0x%016llx\n",
              trace->end.step_count,
              static_cast<unsigned long long>(trace->end.combined_digest));
  std::size_t step = 0;
  for (const auto& event : trace->events) {
    if (event.kind != TraceEvent::Kind::kDetect) continue;
    std::printf("  step %zu @%.3fs: %u detections (0x%016llx), %u fused "
                "points, %u voxels\n",
                step++, event.time_s, event.golden.num_detections,
                static_cast<unsigned long long>(event.golden.detections_digest),
                event.golden.fused_points, event.golden.num_voxels);
  }
  return 0;
}

int CmdVerify(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  std::string matrix = "full";
  int threads = 4;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i].rfind("--matrix=", 0) == 0) {
      matrix = args[i].substr(9);
    } else if (!ParseIntFlag(args[i], "--threads", &threads)) {
      return Usage();
    }
  }
  auto trace = LoadTrace(args[0]);
  if (!trace.ok()) {
    std::fprintf(stderr, "unreadable trace: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }

  std::vector<MatrixCell> cells;
  if (matrix == "full") {
    cells = FullMatrix(threads);
  } else if (matrix == "smoke") {
    cells = SmokeMatrix(threads);
  } else if (matrix != "none") {
    return Usage();
  }

  const ConformanceReport report = RunConformance(*trace, cells);
  std::printf("baseline: %zu steps, %s golden digests\n",
              report.baseline.steps.size(),
              report.baseline.matches_golden ? "MATCHES" : "DIVERGES FROM");
  if (!report.baseline.matches_golden) {
    for (std::size_t s = 0; s < report.baseline.steps.size(); ++s) {
      const StepOutcome& step = report.baseline.steps[s];
      if (step.matches_golden) continue;
      std::printf(
          "  step %zu: recorded 0x%016llx (%u det) vs replayed 0x%016llx "
          "(%u det)\n",
          s, static_cast<unsigned long long>(step.golden.detections_digest),
          step.golden.num_detections,
          static_cast<unsigned long long>(step.computed.detections_digest),
          step.computed.num_detections);
    }
  }
  for (const CellResult& cell : report.cells) {
    if (cell.identical_to_baseline && cell.matches_golden) {
      std::printf("cell %-42s OK\n", CellName(cell.cell).c_str());
    } else {
      std::printf("cell %-42s FAIL%s\n", CellName(cell.cell).c_str(),
                  cell.matches_golden ? "" : " (golden mismatch)");
      if (cell.diff.has_value()) {
        std::printf("  %s\n", FormatDiff(*cell.diff).c_str());
      }
    }
  }
  const bool ok = report.all_identical && report.all_match_golden;
  std::printf("%s: %zu/%zu cells bit-identical, golden %s\n",
              ok ? "PASS" : "FAIL", report.cells.size(), report.cells.size(),
              report.all_match_golden ? "matched" : "mismatched");
  return ok ? 0 : 1;
}

int CmdDiff(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  ReplayOverrides overrides;
  int threads = 0;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (ParseIntFlag(args[i], "--threads", &threads)) {
      overrides.num_threads = threads;
    } else if (args[i] == "--nocache") {
      overrides.cache_reconstructions = false;
    } else if (args[i] == "--obs") {
      overrides.observability = true;
    } else {
      return Usage();
    }
  }
  auto trace = LoadTrace(args[0]);
  if (!trace.ok()) {
    std::fprintf(stderr, "unreadable trace: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }
  const ReplayResult baseline = Replay(*trace, ReplayOverrides{});
  const ReplayResult cell = Replay(*trace, overrides);
  const auto diff = DiffReplays(baseline, cell);
  if (!diff.has_value()) {
    std::printf("identical: %zu steps, combined digest 0x%016llx\n",
                cell.steps.size(),
                static_cast<unsigned long long>(cell.combined_digest));
    return 0;
  }
  std::printf("DIVERGED: %s\n", FormatDiff(*diff).c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();
  const std::string cmd = args[0];
  args.erase(args.begin());
  if (cmd == "record") return CmdRecord(args);
  if (cmd == "info") return CmdInfo(args);
  if (cmd == "verify") return CmdVerify(args);
  if (cmd == "diff") return CmdDiff(args);
  return Usage();
}
