// Open-loop edge workload: `edge_fleet`.
//
// The benchmark's own driver for `serve::EdgeService`, on the schedule of
// `serve::RunLoad`: every vehicle asks for a cooperator exchange window at
// 10 Hz (seeded jitter), admitted packages cross one shared lossy DSRC
// channel through per-link fragmenting transports, frames reach the service
// on the virtual clock, and fusion jobs drain through the executor at a
// 10 ms flush cadence.  Unlike RunLoad, every window draws the vehicles'
// scans from a seeded pool, so no two consecutive windows fuse the same
// cloud, and the horizon is a window count set by `--seconds`.
//
// Timing covers only wall time inside EdgeService calls.  A "frame" here
// is one 100 ms window of fleet traffic: the service time of everything the
// window delivered, planned, queued and fused (64 vehicle windows).  The
// edge keeps up in real time while a frame takes under 100 ms.
//
// Correctness: the service's event stream (admissions, job schedule,
// deadline misses, per-fusion detection digests) is digested at the end of
// every 100 ms window.  After the timed run, the first window is replayed
// at one thread and must give the same digest; the first windows must also
// match the committed digests when the table has a row for the seed.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "bench.h"
#include "core/session.h"
#include "eval/experiment.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "replay/trace.h"
#include "serve/load.h"
#include "serve/service.h"
#include "sim/scenario.h"

namespace perfbench {

using namespace cooper;

namespace {

constexpr int kPoolSize = 8;         // scans per viewpoint, cycled
constexpr int kReplays = 5;          // tick time: fastest of the replays
constexpr double kNominalWindowS = 0.75;
constexpr int kRefWindows = 3;       // committed digest prefix
constexpr int kCheckWindows = 1;     // replayed at one thread
constexpr int kRecallWindows = 2;    // measured windows sampled for recall
constexpr std::uint32_t kRecallStride = 2;  // every 2nd vehicle
constexpr int kProbeStride = 16;     // traced: probe every 16th window
constexpr double kEps = 1e-9;
constexpr core::RoiCategory kRoi = core::RoiCategory::kFrontSector;

serve::LoadConfig EdgeConfig(std::uint64_t seed, int threads) {
  // The committed serve/v64_r10 cell, plus 5% shared-channel loss.
  serve::LoadConfig cfg = serve::MakeLoadConfig();
  cfg.name = "edge_fleet";
  cfg.seed = seed;
  cfg.vehicles = 64;
  cfg.cooperators = 2;
  cfg.arrival_hz = 10.0;
  cfg.loss_prob = 0.05;
  cfg.serve.modeled_cores = 8;
  cfg.serve.per_point_us = 1.0;
  cfg.serve.max_queue = 32;
  cfg.serve.threads = threads;
  return cfg;
}

// The inputs of one vehicle window, kept for the recall pass and the layer
// probe: the receiver's scan and every admitted package.
struct WindowSample {
  std::uint32_t vehicle = 0;
  pc::PointCloud local;
  std::vector<core::ExchangePackage> packages;
};

// One open-loop run: the fleet's scans, its channel links and the service.
// Holds raw pointers into itself (the service borrows the local clouds, the
// scheduler's callbacks capture `this`), so it never moves.
class EdgeRun {
 public:
  EdgeRun(const serve::LoadConfig& cfg, Tracer* tracer);
  EdgeRun(const EdgeRun&) = delete;
  EdgeRun& operator=(const EdgeRun&) = delete;

  /// Advances the virtual clock through window `windows - 1`.
  void RunWindows(int windows) {
    sched_.RunUntil(windows / cfg_.arrival_hz + kEps);
  }

  // Totals since construction.
  std::vector<std::uint64_t> checkpoints;  // event digest per window end
  std::vector<double> tick_ms;             // service wall ms per flush tick
  std::vector<double> window_coverage;     // traced: spans / window wall
  std::vector<double> traced_window_ms, untraced_window_ms;
  std::vector<double> virtual_ms;          // modeled fusion latencies
  std::vector<double> exchange_bytes;      // bytes on air per exchange sent
  std::vector<WindowSample> recall_samples, probe_samples;
  std::size_t fusions = 0;
  std::size_t jobs = 0;
  std::size_t deadline_missed = 0;
  std::size_t vehicle_windows = 0;
  std::size_t demands = 0, admitted = 0, downgraded = 0, rejected = 0;
  std::size_t packages_failed = 0;
  std::size_t queue_depth_max = 0;
  std::size_t busy_flushes = 0;  // flushes that completed a fusion
  // Traced windows: admitted packages, their payload bytes and fragments.
  std::size_t traced_packages = 0, traced_payload_bytes = 0, traced_frames = 0;
  int recall_from_window = -1;  // first window sampled for recall

  std::size_t bytes_on_air() const { return channel_.total_bytes_on_air(); }
  serve::EdgeService& service() { return *svc_; }
  const core::CooperConfig& pipeline_config() const { return pipe_cfg_; }
  std::size_t ViewOf(std::uint32_t vehicle) const {
    return static_cast<std::size_t>(vehicle - 1) % navs_.size();
  }
  const core::NavMetadata& nav(std::size_t view) const { return navs_[view]; }
  const sim::Scenario& scenario() const { return scenario_; }
  std::size_t net_frames_retransmitted() const {
    std::size_t n = 0;
    for (const auto& [key, link] : links_) {
      n += link->transport.stats().frames_retransmitted;
    }
    return n;
  }

 private:
  struct Link {
    net::Transport transport;
    Rng rng;
    Link(const net::TransportConfig& tc, net::DsrcChannel* shared,
         std::uint64_t seed)
        : transport(tc, shared), rng(seed) {}
  };
  struct Sizes {
    std::size_t raw = 0, roi = 0, feat = 0;
  };

  // Times one service call into the current window; traced windows also
  // record it as a span.
  template <typename Fn>
  auto Service(const char* span, Fn&& fn) {
    const auto t0 = Clock::now();
    struct Done {
      EdgeRun* run;
      const char* span;
      Clock::time_point t0;
      ~Done() {
        const auto t1 = Clock::now();
        const double ms = MsBetween(t0, t1);
        run->tick_service_ms_ += ms;
        run->window_covered_ms_ += ms;
        if (run->active_ != nullptr && span != nullptr) {
          run->active_->Record(span, t0, t1);
        }
      }
    } done{this, span, t0};
    return fn();
  }
  // Generator work (package building, channel simulation), outside the
  // service but inside the window's wall time.
  template <typename Fn>
  auto Generator(const char* span, Fn&& fn) {
    const auto t0 = Clock::now();
    struct Done {
      EdgeRun* run;
      const char* span;
      Clock::time_point t0;
      ~Done() {
        const auto t1 = Clock::now();
        run->window_covered_ms_ += MsBetween(t0, t1);
        if (run->active_ != nullptr) run->active_->Record(span, t0, t1);
      }
    } done{this, span, t0};
    return fn();
  }

  Link& LinkFor(std::uint32_t recv, std::uint32_t send);
  void Window(std::uint32_t v, std::uint32_t k, double now);
  void Tick(std::uint32_t k, double now);
  void ScheduleWindow(std::uint32_t v, std::uint32_t k);

  serve::LoadConfig cfg_;
  Tracer* tracer_;
  Tracer* active_ = nullptr;  // tracer while the current window is traced
  sim::Scenario scenario_;
  std::vector<std::vector<pc::PointCloud>> pool_;  // [view][entry]
  std::vector<core::NavMetadata> navs_;
  std::vector<pc::PointCloud> local_;              // [vehicle], borrowed
  core::CooperConfig pipe_cfg_;
  std::unique_ptr<serve::EdgeService> svc_;
  std::unique_ptr<core::CooperPipeline> sender_;
  std::vector<Sizes> sizes_;
  net::DsrcChannel channel_;
  std::map<std::uint64_t, std::unique_ptr<Link>> links_;
  std::vector<Rng> jitter_;  // [vehicle]
  serve::Scheduler sched_;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  double tick_service_ms_ = 0.0;
  double window_service_ms_ = 0.0;
  double window_covered_ms_ = 0.0;
  Clock::time_point window_start_;
};

EdgeRun::EdgeRun(const serve::LoadConfig& cfg, Tracer* tracer)
    : cfg_(cfg),
      tracer_(tracer),
      scenario_(sim::MakeTjScenario(2)),
      channel_([&] {
        net::DsrcConfig c = cfg.serve.admission.planner.channel;
        c.loss_prob = cfg.loss_prob;
        return c;
      }()) {
  scenario_.lidar = cfg.lidar;
  for (std::size_t v = 0; v < scenario_.viewpoints.size(); ++v) {
    navs_.push_back(NavOf(scenario_, v));
    pool_.push_back(ScanPool(scenario_, v, kPoolSize, cfg.seed));
  }

  pipe_cfg_ = eval::MakeCooperConfig(cfg.lidar);
  svc_ = std::make_unique<serve::EdgeService>(pipe_cfg_, cfg.serve);
  local_.resize(cfg.vehicles + 1);
  for (std::uint32_t v = 1; v <= cfg.vehicles; ++v) {
    local_[v] = pool_[ViewOf(v)][v % kPoolSize];
    svc_->RegisterVehicle(v, &local_[v], navs_[ViewOf(v)]);
  }
  sender_ = std::make_unique<core::CooperPipeline>(pipe_cfg_);
  // Planner inputs: what each level would put on the air, per viewpoint,
  // fixed for the run (RunLoad does the same).
  for (std::size_t view = 0; view < navs_.size(); ++view) {
    const auto bytes_at = [&](feat::ExchangeLevel level) {
      return net::SerializePackage(
                 sender_->MakeLeveledPackage(1, 0.0, kRoi, level, navs_[view],
                                             pool_[view][0]))
          .size();
    };
    sizes_.push_back({bytes_at(feat::ExchangeLevel::kRawCloud),
                      bytes_at(feat::ExchangeLevel::kRoiCloud),
                      bytes_at(feat::ExchangeLevel::kVoxelFeatures)});
  }

  svc_->SetEventSink([this](const replay::ServeEventRecord& e) {
    digest_ = replay::DigestServeEvent(e, digest_);
    if (e.kind == replay::ServeEventKind::kJobComplete) {
      ++fusions;
    } else if (e.kind == replay::ServeEventKind::kDeadlineMiss) {
      ++deadline_missed;
    }
  });

  for (std::uint32_t v = 1; v <= cfg.vehicles; ++v) {
    jitter_.emplace_back(cfg.seed * 1000003ull + v);
  }
  for (std::uint32_t v = 1; v <= cfg.vehicles; ++v) ScheduleWindow(v, 0);
  sched_.At(cfg.flush_period_s, [this](double now) { Tick(1, now); });
  window_start_ = Clock::now();
}

EdgeRun::Link& EdgeRun::LinkFor(std::uint32_t recv, std::uint32_t send) {
  const std::uint64_t key = (static_cast<std::uint64_t>(recv) << 32) | send;
  auto it = links_.find(key);
  if (it == links_.end()) {
    it = links_
             .emplace(key, std::make_unique<Link>(
                               pipe_cfg_.transport, &channel_,
                               cfg_.seed ^ (key * 0x9e3779b97f4a7c15ull)))
             .first;
  }
  return *it->second;
}

void EdgeRun::ScheduleWindow(std::uint32_t v, std::uint32_t k) {
  const double t = k / cfg_.arrival_hz + jitter_[v - 1].Uniform(0.0, cfg_.jitter_s);
  sched_.At(t, [this, v, k](double now) { Window(v, k, now); });
}

void EdgeRun::Window(std::uint32_t v, std::uint32_t k, double now) {
  ScheduleWindow(v, k + 1);
  ++vehicle_windows;
  const std::size_t view = ViewOf(v);
  // A fresh scan for the receiver this window.
  Generator("gen.build_ms", [&] {
    local_[v] = pool_[view][(k + v) % kPoolSize];
    return 0;
  });

  std::vector<feat::CooperatorDemand> demands_list;
  for (std::uint32_t i = 1; i <= cfg_.cooperators && i < cfg_.vehicles; ++i) {
    feat::CooperatorDemand d;
    d.sender_id = (v - 1 + i) % cfg_.vehicles + 1;
    d.demand = (v + k) % 4 == 0 ? feat::DemandClass::kFullFrame
                                : feat::DemandClass::kFrontSector;
    const Sizes& s = sizes_[ViewOf(d.sender_id)];
    d.raw_bytes = s.raw;
    d.roi_bytes = s.roi;
    d.feature_bytes = s.feat;
    demands_list.push_back(d);
  }
  const serve::WindowPlan plan = Service("serve.plan_window_ms", [&] {
    return svc_->PlanWindow(demands_list, now);
  });
  demands += plan.decisions.size();
  admitted += plan.admitted;
  downgraded += plan.downgraded;
  rejected += plan.rejected;

  const bool recall_sample = recall_from_window >= 0 &&
                             static_cast<int>(k) >= recall_from_window &&
                             static_cast<int>(k) < recall_from_window + kRecallWindows &&
                             v % kRecallStride == 0;
  const bool probe_sample =
      active_ != nullptr && (v + k) % kProbeStride == 0;
  WindowSample sample;
  sample.vehicle = v;
  if (recall_sample || probe_sample) sample.local = local_[v];

  for (const serve::AdmissionDecision& dec : plan.decisions) {
    if (!dec.admitted) continue;
    const std::uint32_t c = dec.sender_id;
    std::vector<std::uint8_t> bytes = Generator("gen.build_ms", [&] {
      const core::ExchangePackage package = [&] {
        Span span(active_, "core.build_package_ms");
        return sender_->MakeLeveledPackage(
            c, now, kRoi, dec.level, navs_[ViewOf(c)],
            pool_[ViewOf(c)][(k + c) % kPoolSize]);
      }();
      if (active_ != nullptr) {
        ++traced_packages;
        traced_payload_bytes += package.PayloadBytes();
      }
      if (recall_sample || probe_sample) sample.packages.push_back(package);
      Span span(active_, "net.serialize_ms");
      return net::SerializePackage(package);
    });
    if (active_ != nullptr) {
      // Fragmentation runs inside the transport simulation; time the same
      // public call once more on its own.
      const auto f0 = Clock::now();
      const auto frames = net::FragmentPackage(
          bytes, c, 0, pipe_cfg_.transport.mtu_bytes);
      const auto f1 = Clock::now();
      active_->Record("net.fragment_ms", f0, f1);
      window_start_ += f1 - f0;  // not part of the window's wall time
      if (frames.ok()) traced_frames += frames->size();
    }
    Link& link = LinkFor(v, c);
    const double clock_before_ms = link.transport.clock_ms();
    link.transport.SetFrameTap(
        [this, v, now, clock_before_ms](double at_ms,
                                        const std::vector<std::uint8_t>& f) {
          const double arrive_s = now + (at_ms - clock_before_ms) / 1e3;
          sched_.At(arrive_s, [this, v, arrive_s, frame = f](double) {
            Service("serve.deliver_frame_ms", [&] {
              svc_->DeliverFrame(v, arrive_s, frame);
              return 0;
            });
          });
        });
    const std::size_t on_air_before = channel_.total_bytes_on_air();
    const bool delivered = Generator("gen.transport_sim_ms", [&] {
      return link.transport.SendPackage(bytes, c, link.rng).ok();
    });
    exchange_bytes.push_back(
        static_cast<double>(channel_.total_bytes_on_air() - on_air_before));
    link.transport.SetFrameTap({});
    if (!delivered) ++packages_failed;
  }
  if (recall_sample) recall_samples.push_back(sample);
  if (probe_sample) probe_samples.push_back(std::move(sample));

  Service(nullptr, [&] {
    svc_->SubmitFusion(v, now);
    return 0;
  });
  ++jobs;
  queue_depth_max = std::max(queue_depth_max, svc_->queue_depth());
}

void EdgeRun::Tick(std::uint32_t k, double now) {
  sched_.At((k + 1) * cfg_.flush_period_s, [this, k](double t) { Tick(k + 1, t); });
  Service("serve.pump_timers_ms", [&] {
    svc_->PumpTimers(now);
    return 0;
  });
  const std::vector<double> latencies =
      Service("serve.flush_ms", [&] { return svc_->FlushFusions(now); });
  virtual_ms.insert(virtual_ms.end(), latencies.begin(), latencies.end());
  if (!latencies.empty()) ++busy_flushes;
  tick_ms.push_back(tick_service_ms_);
  window_service_ms_ += tick_service_ms_;
  tick_service_ms_ = 0.0;

  const std::uint32_t ticks_per_window = static_cast<std::uint32_t>(
      std::lround(1.0 / (cfg_.arrival_hz * cfg_.flush_period_s)));
  if (k % ticks_per_window != 0) return;
  checkpoints.push_back(digest_);
  if (active_ != nullptr) {
    const double wall_ms = MsBetween(window_start_, Clock::now());
    window_coverage.push_back(wall_ms > 0 ? window_covered_ms_ / wall_ms : 1.0);
    traced_window_ms.push_back(window_service_ms_);
  } else {
    untraced_window_ms.push_back(window_service_ms_);
  }
  window_service_ms_ = 0.0;
  window_covered_ms_ = 0.0;
  // Traced runs alternate whole windows between traced and untraced, so the
  // tracing overhead can be read off the same run.
  active_ = tracer_ != nullptr && tracer_->enabled() &&
                    checkpoints.size() % 2 == 1
                ? tracer_
                : nullptr;
  if (active_ != nullptr) active_->BeginSample();
  window_start_ = Clock::now();
}

}  // namespace

RunResult RunEdgeWorkload(const Options& options) {
  RunResult result;
  const int threads = MaxThreads();
  const serve::LoadConfig cfg = EdgeConfig(options.seed, threads);
  StampHost(&result, options, threads);

  if (options.emit_reference) {
    EdgeRun run(EdgeConfig(options.seed, 1), nullptr);
    run.RunWindows(kRefWindows);
    result.reference.assign(run.checkpoints.begin(),
                            run.checkpoints.begin() + kRefWindows);
    return result;
  }

  Tracer tracer(options.trace);
  // --- Setup: scans, service, registration and the cold first window as
  // warm-up.  Every replay below sets up again; setup_s is their median.
  std::vector<double> setup_s;
  const auto s0 = Clock::now();
  auto run = std::make_unique<EdgeRun>(cfg, options.trace ? &tracer : nullptr);
  run->RunWindows(1);
  setup_s.push_back(MsBetween(s0, Clock::now()) / 1e3);

  // --- Timed open loop, in whole windows.  An untraced run splits its
  // time over kReplays identical replays of the schedule and times each
  // 10 ms flush tick at its fastest replay: load from other processes on
  // the host only ever adds time, and it comes in bursts shorter than a
  // window, so the fastest of several timings of each tick is the steadiest
  // estimate of what the service costs.
  const int replays = options.trace || options.smoke ? 1 : kReplays;
  const std::size_t ticks0 = run->tick_ms.size();
  const std::size_t fusions0 = run->fusions;
  const std::size_t jobs0 = run->jobs;
  const std::size_t windows0 = run->vehicle_windows;
  const std::size_t bytes0 = run->bytes_on_air();
  const std::size_t missed0 = run->deadline_missed;
  const std::size_t exchanges0 = run->exchange_bytes.size();
  run->recall_from_window = 1;
  // The run length is a window count fixed by --seconds (a window takes
  // about kNominalWindowS of wall time on a 4-core AVX2 host), so every
  // replay and every seed does the same work.
  const int windows =
      1 + (options.smoke ? kRefWindows - 1
                         : std::max(kRecallWindows,
                                    static_cast<int>(options.seconds /
                                                     (replays * kNominalWindowS))));
  run->RunWindows(windows);
  std::vector<double> best_tick_ms(run->tick_ms.begin() + ticks0,
                                   run->tick_ms.end());
  const std::size_t ticks_per_window =
      best_tick_ms.size() / static_cast<std::size_t>(windows - 1);
  const std::size_t fusions = run->fusions - fusions0;
  const std::size_t vehicle_windows = run->vehicle_windows - windows0;

  // --- Correctness: one-thread replay of the first window, committed
  // prefix, and every operation accounted for.
  {
    EdgeRun check(EdgeConfig(options.seed, 1), nullptr);
    check.RunWindows(kCheckWindows);
    for (int w = 0; w < kCheckWindows; ++w) {
      if (check.checkpoints[w] != run->checkpoints[w]) {
        result.Error("event digest differs between 1 and " +
                     std::to_string(threads) + " threads");
      }
    }
  }
  std::uint64_t mismatched = 0;
  const std::vector<std::uint64_t>* committed =
      FindReference(options.reference_path, options.workload, options.seed);
  if (committed != nullptr) {
    for (std::size_t w = 0; w < committed->size() && w < run->checkpoints.size();
         ++w) {
      if ((*committed)[w] != run->checkpoints[w]) ++mismatched;
    }
    if (mismatched > 0) result.Error("event digests differ from the committed ones");
  } else if (options.smoke) {
    result.Error("smoke mode needs a committed reference for this seed");
  }
  std::size_t corrupt = 0, incomplete = 0, hits = 0, misses = 0;
  for (const std::uint32_t v : run->service().vehicles()) {
    const core::SessionStats& s = run->service().session(v)->stats();
    corrupt += s.packages_corrupt;
    incomplete += s.packages_incomplete;
    hits += s.recon_cache_hits;
    misses += s.recon_cache_misses;
  }
  const std::uint64_t failures = run->deadline_missed + run->packages_failed +
                                 corrupt + incomplete + mismatched;
  if (failures > 0) {
    result.Error("a fusion missed its deadline or a package was lost");
  }
  result.attempted = run->jobs - jobs0;
  result.failed = std::min<std::uint64_t>(failures, result.attempted);

  // Detection quality of the admitted exchanges: the sampled windows'
  // inputs fused in a fresh session.
  std::size_t cars_matched = 0, cars_total = 0;
  {
    core::CooperConfig ref_cfg = run->pipeline_config();
    core::SessionConfig session_cfg;
    session_cfg.cache_reconstructions = false;
    for (const WindowSample& s : run->recall_samples) {
      core::CooperativeSession session(ref_cfg, session_cfg);
      for (const core::ExchangePackage& p : s.packages) {
        (void)session.ReceivePackage(p, p.timestamp_s);
      }
      const double now = s.packages.empty() ? 0.0 : s.packages[0].timestamp_s;
      const core::CooperOutput out = session.DetectCooperative(
          s.local, run->nav(run->ViewOf(s.vehicle)), now);
      const auto cars = CarsNear(run->scenario(), run->ViewOf(s.vehicle));
      cars_matched += static_cast<std::size_t>(
          MatchedCars(out.fused.detections, cars));
      cars_total += cars.size();
    }
  }

  result.Stamp("scenario", JsonString(run->scenario().name));
  result.Stamp("beams", std::to_string(cfg.lidar.beams));
  result.Stamp("azimuth_steps", std::to_string(cfg.lidar.azimuth_steps));
  result.Stamp("roi", JsonString(core::RoiCategoryName(kRoi)));
  result.Stamp("vehicles", std::to_string(cfg.vehicles));
  result.Stamp("cooperators", std::to_string(cfg.cooperators));
  result.Stamp("scan_pool", std::to_string(kPoolSize));
  result.Stamp("loop", JsonString("open, 10 Hz windows on the virtual clock"));
  result.Stamp("loss_prob", std::to_string(cfg.loss_prob));
  result.Stamp("modeled_cores", std::to_string(cfg.serve.modeled_cores));
  result.Stamp("frame", JsonString("one 100 ms window of fleet traffic"));
  result.Stamp("frame_samples", std::to_string(windows - 1));
  result.Stamp("fusions", std::to_string(fusions));
  result.Stamp("deadline_missed", std::to_string(run->deadline_missed - missed0));
  result.Stamp("car_recall_base",
               JsonString(std::to_string(cars_matched) + "/" +
                          std::to_string(cars_total) + " cars in " +
                          std::to_string(run->recall_samples.size()) +
                          " sampled vehicle windows"));

  // The median exchange sent (one cooperator package of one vehicle
  // window): which and how many windows the admission ladder lets through,
  // and so the mix of raw, ROI and feature packages, varies a lot with the
  // seed.
  const std::vector<double> exchange_bytes(
      run->exchange_bytes.begin() + static_cast<std::ptrdiff_t>(exchanges0),
      run->exchange_bytes.end());
  const double wire_bytes_per_exchange = Median(exchange_bytes);
  result.Stamp("exchanges_sent", std::to_string(exchange_bytes.size()));
  result.Stamp("wire_bytes_per_vehicle_window",
               std::to_string(static_cast<double>(run->bytes_on_air() - bytes0) /
                              static_cast<double>(vehicle_windows)));
  result.Stamp("vehicle_windows", std::to_string(vehicle_windows));

  if (!options.trace) {
    const std::vector<std::uint64_t> checkpoints = run->checkpoints;
    run.reset();  // replays run one at a time
    for (int r = 1; r < replays; ++r) {
      const auto s0 = Clock::now();
      EdgeRun replay(cfg, nullptr);
      replay.RunWindows(1);
      setup_s.push_back(MsBetween(s0, Clock::now()) / 1e3);
      replay.RunWindows(windows);
      if (replay.checkpoints != checkpoints) {
        result.Error("replays of the same seed differ");
      }
      for (std::size_t t = 0; t < best_tick_ms.size(); ++t) {
        best_tick_ms[t] = std::min(best_tick_ms[t], replay.tick_ms[ticks0 + t]);
      }
      result.attempted += replay.jobs - jobs0;
    }
    // A window's time is the sum of its ticks' fastest timings.
    std::vector<double> frames(static_cast<std::size_t>(windows - 1), 0.0);
    double best_ms = 0.0;
    for (std::size_t t = 0; t < best_tick_ms.size(); ++t) {
      frames[t / ticks_per_window] += best_tick_ms[t];
      best_ms += best_tick_ms[t];
    }
    result.Stamp("frame_statistic",
                 JsonString("each 10 ms flush tick timed at the fastest of " +
                            std::to_string(replays) +
                            " replays; a window sums its ticks"));
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("frame_p50_ms", Quantile(frames, 0.5), "ms");
    result.Add("frame_p90_ms", Quantile(frames, 0.9), "ms");
    result.Add("fusions_per_s",
               best_ms > 0 ? static_cast<double>(fusions) / (best_ms / 1e3)
                           : 0.0,
               "1/s");
    result.Add("wire_bytes_per_frame", wire_bytes_per_exchange,
               "B");
    result.Add("car_recall",
               cars_total > 0 ? static_cast<double>(cars_matched) /
                                    static_cast<double>(cars_total)
                              : 0.0,
               "frac");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  // Traced run: layer probe on the sampled windows, after the loop.
  const core::CooperPipeline probe_pipeline(run->pipeline_config());
  for (const WindowSample& s : run->probe_samples) {
    tracer.BeginSample();
    std::vector<std::vector<std::vector<std::uint8_t>>> packages;
    for (const core::ExchangePackage& p : s.packages) {
      packages.push_back(net::FragmentPackage(net::SerializePackage(p),
                                              p.sender_id, 1,
                                              run->pipeline_config().transport.mtu_bytes)
                             .value());
    }
    (void)ProbeReceiverPath(probe_pipeline, s.local,
                            run->nav(run->ViewOf(s.vehicle)), packages,
                            &tracer);
  }

  std::map<std::string, double> run_level;
  run_level["core.recon_cache_hit_ratio"] =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  result.Stamp("recon_cache_base",
               JsonString(std::to_string(hits) + "/" +
                          std::to_string(hits + misses) + " lanes"));
  run_level["core.packages_corrupt"] = static_cast<double>(corrupt);
  run_level["core.packages_incomplete"] = static_cast<double>(incomplete);
  run_level["net.frames_retransmitted"] =
      static_cast<double>(run->net_frames_retransmitted());
  run_level["net.packages_failed"] = static_cast<double>(run->packages_failed);
  if (run->traced_packages > 0) {
    const auto packages = static_cast<double>(run->traced_packages);
    run_level["core.payload_bytes"] =
        static_cast<double>(run->traced_payload_bytes) / packages;
    run_level["net.frames_per_package"] =
        static_cast<double>(run->traced_frames) / packages;
  }
  run_level["serve.batch_size"] =
      run->busy_flushes > 0 ? static_cast<double>(run->fusions) /
                                  static_cast<double>(run->busy_flushes)
                            : 0.0;
  run_level["serve.queue_depth_max"] = static_cast<double>(run->queue_depth_max);
  run_level["serve.admit_ratio"] =
      run->demands > 0 ? static_cast<double>(run->admitted) /
                             static_cast<double>(run->demands)
                       : 0.0;
  run_level["serve.downgraded"] = static_cast<double>(run->downgraded);
  run_level["serve.rejected"] = static_cast<double>(run->rejected);
  run_level["serve.deadline_missed"] = static_cast<double>(run->deadline_missed);
  run_level["serve.virtual_p99_ms"] = Quantile(run->virtual_ms, 0.99);
  const double untraced = Median(run->untraced_window_ms);
  run_level["trace.overhead_frac"] =
      untraced > 0 ? Median(run->traced_window_ms) / untraced - 1.0 : 0.0;
  double min_coverage = 1.0;
  for (const double c : run->window_coverage) {
    min_coverage = std::min(min_coverage, c);
  }
  if (min_coverage < 0.95 || min_coverage > 1.0) {
    result.Error("window spans cover less than 95% of the window, or more than all of it");
  }
  run_level["trace.coverage_frac"] = Median(run->window_coverage);
  result.Stamp("trace_coverage_min", std::to_string(min_coverage));
  AddLayerMetrics(tracer, run_level, &result);
  return result;
}

}  // namespace perfbench
