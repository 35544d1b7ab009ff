// cooper_perfbench: runs one benchmark workload and prints its result.
//
//   cooper_perfbench --workload <kitti_pair|tj_fleet|edge_fleet> --seed N
//                    --seconds S --trace <0|1> --reference FILE [--smoke]
//                    [--emit-reference]
//
// The last line of standard output is one JSON object with the keys
// `correct`, `attempted`, `failed` and `metrics`: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1.  The line before it holds
// the run's provenance.  --emit-reference prints the reference digest row
// for the seed instead (see reference_digests.txt).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "cooper_perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--emit-reference") {
      options.emit_reference = true;
    } else if ((value = next()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (arg == "--reference") {
      options.reference_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }

  perfbench::RunResult result;
  if (options.workload == "kitti_pair" || options.workload == "tj_fleet") {
    result = perfbench::RunFrameWorkload(options);
  } else if (options.workload == "edge_fleet") {
    result = perfbench::RunEdgeWorkload(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  if (options.emit_reference) {
    std::printf("%s %" PRIu64, options.workload.c_str(), options.seed);
    for (const std::uint64_t d : result.reference) {
      std::printf(" %016" PRIx64, d);
    }
    std::printf("\n");
    return 0;
  }

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "cooper_perfbench: check failed: %s\n", e.c_str());
  }
  std::string line = "{";
  for (std::size_t i = 0; i < result.provenance.size(); ++i) {
    line += (i ? ", " : "") + perfbench::JsonString(result.provenance[i].first) +
            ": " + result.provenance[i].second;
  }
  std::printf("provenance %s}\n", line.c_str());

  std::string metrics;
  char buf[64];
  for (const perfbench::Metric& m : result.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      result.correct = false;
      v = 0.0;
    }
    std::snprintf(buf, sizeof buf, "%.17g", v);
    metrics += (metrics.empty() ? "" : ", ") + perfbench::JsonString(m.name) +
               ": {\"value\": " + buf +
               ", \"unit\": " + perfbench::JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, metrics.c_str());
  return 0;
}
