// Closed-loop receiver workloads: `kitti_pair` and `tj_fleet`.
//
// Each ego frame, every cooperator builds a fresh kFrontSector ROI-cloud
// package from its next pooled scan, serializes and fragments it (generator
// work, untimed).  The frame is then timed from offering its first wire
// fragment to `CooperativeSession::ReceiveFrame` until
// `CooperativeSession::DetectCooperative` returns.
//
// Correctness: after the timed loop, every pool entry is fused again
// through an independent reference path (in-memory packages, no wire,
// reconstruction cache off, one thread).  Each frame's detection digest
// must equal its entry's reference digest, and the reference digests must
// equal the committed ones when the table has a row for the seed.
#include <algorithm>
#include <map>
#include <memory>

#include "bench.h"
#include "core/session.h"
#include "eval/experiment.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "replay/trace.h"
#include "sim/scenario.h"

namespace perfbench {

using namespace cooper;

namespace {

constexpr int kSetupRepeats = 9;       // setup_s is their median
constexpr int kSmokeFrames = 3;
constexpr double kFramePeriodS = 0.1;  // 10 Hz lidar
constexpr double kStartS = 10.0;
constexpr core::RoiCategory kRoi = core::RoiCategory::kFrontSector;

struct FrameSpec {
  sim::Scenario scenario;
  int ego = 0;
  std::vector<int> cooperators;  // viewpoint index == sender id
  int threads = 1;
  // Scans per viewpoint, cycled.  Frame times are each scan's fastest
  // visit, so a slow workload gets fewer scans and more visits per scan;
  // at 4 or more scans the 3 rulebooks a frame needs still overflow the
  // 8-entry sparse-conv rulebook LRU, so every frame misses it.
  int pool = 8;
};

FrameSpec MakeSpec(const std::string& workload) {
  FrameSpec spec;
  if (workload == "kitti_pair") {
    spec.scenario = sim::MakeKittiTJunction();
    spec.ego = spec.scenario.cases[0].a;
    spec.cooperators = {spec.scenario.cases[0].b};
    spec.threads = 1;
  } else {
    spec.scenario = sim::MakeTjScenario(2);
    spec.ego = 0;
    spec.cooperators = {1, 2, 3, 4};
    spec.threads = MaxThreads();
    spec.pool = 4;
  }
  return spec;
}

// Everything a run needs before its first timed frame.
struct Setup {
  std::vector<std::vector<pc::PointCloud>> pool;  // [viewpoint][entry]
  std::vector<core::NavMetadata> navs;            // [viewpoint]
  std::unique_ptr<core::CooperPipeline> sender;
  std::unique_ptr<core::CooperativeSession> session;
};

// One cooperator package on the wire.
struct WirePackage {
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t payload_bytes = 0;
};

WirePackage SendPackage(const core::CooperPipeline& sender, std::uint32_t id,
                        std::uint32_t seq, double t,
                        const core::NavMetadata& nav,
                        const pc::PointCloud& scan, Tracer* tracer) {
  Span gen(tracer, "gen.build_ms");
  WirePackage wire;
  const core::ExchangePackage package = [&] {
    Span span(tracer, "core.build_package_ms");
    return sender.MakePackage(id, t, kRoi, nav, scan);
  }();
  wire.payload_bytes = package.PayloadBytes();
  const std::vector<std::uint8_t> bytes = [&] {
    Span span(tracer, "net.serialize_ms");
    return net::SerializePackage(package);
  }();
  Span span(tracer, "net.fragment_ms");
  wire.frames = net::FragmentPackage(bytes, id, seq,
                                     sender.config().transport.mtu_bytes)
                    .value();
  return wire;
}

Setup MakeSetup(const FrameSpec& spec, const core::CooperConfig& config,
                std::uint64_t seed) {
  Setup setup;
  const std::size_t views = spec.scenario.viewpoints.size();
  setup.pool.resize(views);
  for (std::size_t v = 0; v < views; ++v) {
    setup.navs.push_back(NavOf(spec.scenario, v));
  }
  setup.pool[spec.ego] = ScanPool(spec.scenario, spec.ego, spec.pool, seed);
  for (const int c : spec.cooperators) {
    setup.pool[c] = ScanPool(spec.scenario, c, spec.pool, seed);
  }
  setup.sender = std::make_unique<core::CooperPipeline>(config);
  setup.session = std::make_unique<core::CooperativeSession>(config);
  return setup;
}

// The independent reference: in-memory packages, cache off, one thread.
std::vector<std::uint64_t> ReferenceDigests(const FrameSpec& spec,
                                            const core::CooperConfig& config,
                                            const Setup& setup, int entries) {
  core::CooperConfig ref_cfg = config;
  ref_cfg.num_threads = 1;
  core::SessionConfig session_cfg;
  session_cfg.cache_reconstructions = false;
  std::vector<std::uint64_t> digests;
  for (int j = 0; j < entries; ++j) {
    core::CooperativeSession session(ref_cfg, session_cfg);
    for (const int c : spec.cooperators) {
      const Status st = session.ReceivePackage(
          session.pipeline().MakePackage(static_cast<std::uint32_t>(c), 0.0,
                                         kRoi, setup.navs[c],
                                         setup.pool[c][j]),
          0.0);
      COOPER_CHECK(st.ok());
    }
    const core::CooperOutput out = session.DetectCooperative(
        setup.pool[spec.ego][j], setup.navs[spec.ego], 0.0);
    digests.push_back(replay::DigestDetections(out.fused.detections));
  }
  return digests;
}

}  // namespace

RunResult RunFrameWorkload(const Options& options) {
  RunResult result;
  const FrameSpec spec = MakeSpec(options.workload);
  core::CooperConfig config = eval::MakeCooperConfig(spec.scenario.lidar);
  config.num_threads = spec.threads;
  StampHost(&result, options, spec.threads);

  if (options.emit_reference) {
    const Setup setup = MakeSetup(spec, config, options.seed);
    result.reference = ReferenceDigests(spec, config, setup, spec.pool);
    return result;
  }

  Tracer tracer(options.trace);
  Tracer* tr = &tracer;
  std::vector<std::uint32_t> seq(spec.scenario.viewpoints.size(), 1);

  struct FrameRecord {
    int entry = 0;
    double ms = 0.0;
    std::uint64_t digest = 0;
    bool traced = false;
  };
  // Run totals that the frames below accumulate into.
  std::size_t wire_bytes = 0;
  std::size_t cars_matched = 0;
  std::size_t cars_total = 0;
  std::uint64_t undelivered = 0;
  std::vector<double> coverage;
  const std::vector<geom::Box3> cars = CarsNear(spec.scenario, spec.ego);
  std::unique_ptr<core::CooperPipeline> probe_pipeline;
  if (options.trace) probe_pipeline = std::make_unique<core::CooperPipeline>(config);

  // One ego frame: build the packages, then the timed receive + detect.
  const auto run_frame = [&](Setup& setup, int index, bool traced,
                             bool measured) {
    FrameRecord rec;
    rec.entry = ((index % spec.pool) + spec.pool) % spec.pool;
    rec.traced = traced;
    Tracer* frame_tr = traced ? tr : nullptr;
    if (traced) tr->BeginSample();
    const double t = kStartS + kFramePeriodS * index;
    std::vector<WirePackage> wire;
    for (const int c : spec.cooperators) {
      wire.push_back(SendPackage(*setup.sender, static_cast<std::uint32_t>(c),
                                 seq[c]++, t, setup.navs[c],
                                 setup.pool[c][rec.entry], frame_tr));
    }
    core::CooperativeSession& session = *setup.session;
    const auto taken = [&session] {
      return session.stats().packages_accepted +
             session.stats().packages_replaced;
    };
    const std::size_t taken_before = taken();
    double covered_ms = 0.0;
    const auto t0 = Clock::now();
    for (const WirePackage& w : wire) {
      for (const auto& frame : w.frames) {
        const auto r0 = traced ? Clock::now() : Clock::time_point{};
        const Status st = session.ReceiveFrame(frame, t);
        if (traced) {
          const auto r1 = Clock::now();
          tr->Record("core.receive_frame_ms", r0, r1);
          covered_ms += MsBetween(r0, r1);
        }
        if (!st.ok()) ++undelivered;
      }
    }
    const auto d0 = traced ? Clock::now() : Clock::time_point{};
    const core::CooperOutput out = session.DetectCooperative(
        setup.pool[spec.ego][rec.entry], setup.navs[spec.ego], t);
    const auto t1 = Clock::now();
    if (traced) {
      tr->Record("core.detect_cooperative_ms", d0, t1);
      covered_ms += MsBetween(d0, t1);
    }
    rec.ms = MsBetween(t0, t1);
    rec.digest = replay::DigestDetections(out.fused.detections);
    if (traced) coverage.push_back(covered_ms / rec.ms);

    if (taken() - taken_before != spec.cooperators.size()) {
      ++undelivered;
    }
    if (measured) {
      for (const WirePackage& w : wire) {
        for (const auto& frame : w.frames) wire_bytes += frame.size();
      }
      cars_matched += static_cast<std::size_t>(
          MatchedCars(out.fused.detections, cars));
      cars_total += cars.size();
    }
    if (traced) {
      // Per-package means over the frame's packages.
      const auto n = static_cast<double>(wire.size());
      for (const WirePackage& w : wire) {
        tr->Value("core.payload_bytes", static_cast<double>(w.payload_bytes) / n);
        tr->Value("net.frames_per_package",
                  static_cast<double>(w.frames.size()) / n);
      }
      // Layer probe on the same inputs, outside the timed frame.
      tr->BeginSample();
      std::vector<std::vector<std::vector<std::uint8_t>>> packages;
      for (const WirePackage& w : wire) packages.push_back(w.frames);
      const std::uint64_t probed = ProbeReceiverPath(
          *probe_pipeline, setup.pool[spec.ego][rec.entry],
          setup.navs[spec.ego], packages, tr);
      if (probed != rec.digest) {
        result.Error("layer probe digest differs from the session's");
      }
    }
    return rec;
  };

  // --- Setup: scans, pipeline + session, one warm-up frame; repeated, and
  // the last instance is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  const int repeats = options.smoke ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    setup.reset();
    std::fill(seq.begin(), seq.end(), 1u);
    const auto s0 = Clock::now();
    setup = std::make_unique<Setup>(MakeSetup(spec, config, options.seed));
    (void)run_frame(*setup, -1, false, false);
    setup_s.push_back(MsBetween(s0, Clock::now()) / 1e3);
  }

  // --- Timed closed loop.  A traced run alternates whole pool cycles
  // between traced and untraced frames, so both halves see every entry
  // (smoke mode traces every frame).
  std::vector<FrameRecord> frames;
  double loop_ms = 0.0;
  for (int i = 0;; ++i) {
    // Runs end on a whole pool cycle, so every scan weighs the same.
    if (options.smoke ? i >= kSmokeFrames
                      : i % spec.pool == 0 && i >= 2 * spec.pool &&
                            loop_ms >= options.seconds * 1e3) {
      break;
    }
    const bool traced =
        options.trace && (options.smoke || (i / spec.pool) % 2 == 1);
    const auto f0 = Clock::now();
    frames.push_back(run_frame(*setup, i, traced, true));
    const auto f1 = Clock::now();
    loop_ms += MsBetween(f0, f1);
  }

  // --- Correctness.
  const std::vector<std::uint64_t> reference = ReferenceDigests(
      spec, config, *setup,
      std::min<int>(spec.pool, static_cast<int>(frames.size())));
  std::uint64_t mismatched = 0;
  for (const FrameRecord& f : frames) {
    if (f.digest != reference[f.entry]) ++mismatched;
  }
  if (mismatched > 0) result.Error("frame digests differ from the reference path");
  const std::vector<std::uint64_t>* committed =
      FindReference(options.reference_path, options.workload, options.seed);
  if (committed != nullptr) {
    for (std::size_t j = 0; j < reference.size(); ++j) {
      if (j >= committed->size() || (*committed)[j] != reference[j]) {
        result.Error("reference digests differ from the committed ones");
        break;
      }
    }
  } else if (options.smoke) {
    result.Error("smoke mode needs a committed reference for this seed");
  }
  if (undelivered > 0) result.Error("a package was not delivered whole");
  result.attempted = frames.size();
  result.failed = mismatched + undelivered;

  // Each scan's frame time is its fastest untraced visit: load from other
  // processes on the host only ever adds time, so the fastest of several
  // visits is the steadiest estimate of what the code costs.
  std::vector<double> untraced_ms, traced_ms;
  std::map<int, double> best_ms;  // by pool entry
  for (const FrameRecord& f : frames) {
    (f.traced ? traced_ms : untraced_ms).push_back(f.ms);
    if (f.traced) continue;
    const auto it = best_ms.find(f.entry);
    if (it == best_ms.end() || f.ms < it->second) best_ms[f.entry] = f.ms;
  }
  std::vector<double> scan_ms;
  double scan_sum_ms = 0.0;
  for (const auto& [entry, ms] : best_ms) {
    scan_ms.push_back(ms);
    scan_sum_ms += ms;
  }

  const std::string beams = std::to_string(spec.scenario.lidar.beams);
  result.Stamp("scenario", JsonString(spec.scenario.name));
  result.Stamp("beams", beams);
  result.Stamp("roi", JsonString(core::RoiCategoryName(kRoi)));
  result.Stamp("cooperators", std::to_string(spec.cooperators.size()));
  result.Stamp("scan_pool", std::to_string(spec.pool));
  result.Stamp("loop", JsonString("closed"));
  result.Stamp("frame_samples", std::to_string(untraced_ms.size()));
  result.Stamp("frame_statistic",
               JsonString("per scan, the fastest of its " +
                          std::to_string(untraced_ms.size() / spec.pool) +
                          " visits; quantiles over the " +
                          std::to_string(scan_ms.size()) + " scans"));
  result.Stamp("car_recall_base",
               JsonString(std::to_string(cars_matched) + "/" +
                          std::to_string(cars_total) + " cars"));

  if (!options.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("frame_p50_ms", Quantile(scan_ms, 0.5), "ms");
    result.Add("frame_p90_ms", Quantile(scan_ms, 0.9), "ms");
    result.Add("fusions_per_s",
               static_cast<double>(scan_ms.size()) / (scan_sum_ms / 1e3),
               "1/s");
    result.Add("wire_bytes_per_frame",
               static_cast<double>(wire_bytes) /
                   static_cast<double>(frames.size()),
               "B");
    result.Add("car_recall",
               cars_total > 0 ? static_cast<double>(cars_matched) /
                                    static_cast<double>(cars_total)
                              : 0.0,
               "frac");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  const core::SessionStats& stats = setup->session->stats();
  std::map<std::string, double> run_level;
  const double recon_total =
      static_cast<double>(stats.recon_cache_hits + stats.recon_cache_misses);
  run_level["core.recon_cache_hit_ratio"] =
      recon_total > 0 ? static_cast<double>(stats.recon_cache_hits) / recon_total
                      : 0.0;
  result.Stamp("recon_cache_base",
               JsonString(std::to_string(stats.recon_cache_hits) + "/" +
                          std::to_string(stats.recon_cache_hits +
                                         stats.recon_cache_misses) +
                          " lanes"));
  run_level["core.packages_corrupt"] = static_cast<double>(stats.packages_corrupt);
  run_level["core.packages_incomplete"] =
      static_cast<double>(stats.packages_incomplete);
  run_level["net.frames_retransmitted"] = 0.0;  // lossless channel
  run_level["net.packages_failed"] = 0.0;
  run_level["trace.overhead_frac"] =
      Median(untraced_ms) > 0 ? Median(traced_ms) / Median(untraced_ms) - 1.0
                              : 0.0;
  double min_coverage = 1.0;
  for (const double c : coverage) {
    min_coverage = std::min(min_coverage, c);
    if (c < 0.95 || c > 1.0) {
      result.Error("frame spans cover less than 95% of the frame, or more than all of it");
      break;
    }
  }
  run_level["trace.coverage_frac"] = Median(coverage);
  result.Stamp("trace_coverage_min", std::to_string(min_coverage));
  result.Stamp("traced_frames", std::to_string(traced_ms.size()));
  AddLayerMetrics(tracer, run_level, &result);
  return result;
}

}  // namespace perfbench
