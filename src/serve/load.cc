#include "serve/load.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "eval/experiment.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "sim/scenario.h"

namespace cooper::serve {

namespace {

constexpr std::uint8_t kLevelNone = 3;
constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;

std::uint64_t TimeUs(double t_s) {
  return static_cast<std::uint64_t>(t_s * 1e6 + 0.5);
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double BitsDouble(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// kSetup scalar registry.  `SetupScalars` (encode) and `ApplySetupScalar`
// (decode) must list the same indices — indices are wire format, append only.
// The lidar geometry, session knobs, thread count, name and seed travel in
// the kConfig record instead (TraceConfig covers them already).
std::vector<std::pair<std::uint32_t, std::uint64_t>> SetupScalars(
    const LoadConfig& c) {
  const AdmissionConfig& a = c.serve.admission;
  const net::DsrcConfig& ch = a.planner.channel;
  return {
      {0, c.vehicles},
      {1, c.cooperators},
      {2, DoubleBits(c.arrival_hz)},
      {3, DoubleBits(c.horizon_s)},
      {4, DoubleBits(c.jitter_s)},
      {5, DoubleBits(c.flush_period_s)},
      {6, DoubleBits(c.loss_prob)},
      {7, c.serve.shards},
      {8, DoubleBits(c.serve.deadline_ms)},
      {9, c.serve.max_queue},
      {10, static_cast<std::uint64_t>(c.serve.modeled_cores)},
      {11, DoubleBits(c.serve.base_service_us)},
      {12, DoubleBits(c.serve.per_point_us)},
      {13, DoubleBits(c.serve.sweep_slot_s)},
      {14, c.serve.sweep_slots},
      {15, DoubleBits(c.serve.sweep_period_s)},
      {16, c.serve.shard_reassembly_budget_bytes},
      {17, DoubleBits(a.downgrade_raw_fraction)},
      {18, DoubleBits(a.downgrade_feat_fraction)},
      {19, DoubleBits(a.airtime_period_s)},
      {20, DoubleBits(a.airtime_budget_fraction)},
      {21, DoubleBits(a.planner.frame_period_s)},
      {22, DoubleBits(a.planner.budget_fraction)},
      {23, DoubleBits(ch.data_rate_mbps)},
      {24, DoubleBits(ch.access_latency_ms)},
      {25, DoubleBits(ch.loss_prob)},
      {26, DoubleBits(ch.usable_fraction)},
  };
}

void ApplySetupScalar(LoadConfig* c, std::uint32_t index, std::uint64_t bits) {
  AdmissionConfig& a = c->serve.admission;
  net::DsrcConfig& ch = a.planner.channel;
  switch (index) {
    case 0: c->vehicles = static_cast<std::uint32_t>(bits); break;
    case 1: c->cooperators = static_cast<std::uint32_t>(bits); break;
    case 2: c->arrival_hz = BitsDouble(bits); break;
    case 3: c->horizon_s = BitsDouble(bits); break;
    case 4: c->jitter_s = BitsDouble(bits); break;
    case 5: c->flush_period_s = BitsDouble(bits); break;
    case 6: c->loss_prob = BitsDouble(bits); break;
    case 7: c->serve.shards = static_cast<std::size_t>(bits); break;
    case 8: c->serve.deadline_ms = BitsDouble(bits); break;
    case 9: c->serve.max_queue = static_cast<std::size_t>(bits); break;
    case 10: c->serve.modeled_cores = static_cast<int>(bits); break;
    case 11: c->serve.base_service_us = BitsDouble(bits); break;
    case 12: c->serve.per_point_us = BitsDouble(bits); break;
    case 13: c->serve.sweep_slot_s = BitsDouble(bits); break;
    case 14: c->serve.sweep_slots = static_cast<std::size_t>(bits); break;
    case 15: c->serve.sweep_period_s = BitsDouble(bits); break;
    case 16:
      c->serve.shard_reassembly_budget_bytes =
          static_cast<std::size_t>(bits);
      break;
    case 17: a.downgrade_raw_fraction = BitsDouble(bits); break;
    case 18: a.downgrade_feat_fraction = BitsDouble(bits); break;
    case 19: a.airtime_period_s = BitsDouble(bits); break;
    case 20: a.airtime_budget_fraction = BitsDouble(bits); break;
    case 21: a.planner.frame_period_s = BitsDouble(bits); break;
    case 22: a.planner.budget_fraction = BitsDouble(bits); break;
    case 23: ch.data_rate_mbps = BitsDouble(bits); break;
    case 24: ch.access_latency_ms = BitsDouble(bits); break;
    case 25: ch.loss_prob = BitsDouble(bits); break;
    case 26: ch.usable_fraction = BitsDouble(bits); break;
    default: break;  // forward compatibility: newer scalars are skippable
  }
}

double Quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

LoadConfig MakeLoadConfig() {
  LoadConfig cfg;
  cfg.lidar.beams = 8;
  cfg.lidar.azimuth_steps = 256;
  return cfg;
}

LoadReport RunLoad(const LoadConfig& cfg, replay::TraceWriter* trace,
                   const EventObserver& observer) {
  COOPER_CHECK(cfg.vehicles >= 1);
  COOPER_CHECK(cfg.arrival_hz > 0.0);
  COOPER_CHECK(cfg.flush_period_s > 0.0);
  const auto wall_start = std::chrono::steady_clock::now();

  // --- Fleet: T&J parking-lot viewpoints under the load sensor, vehicles
  // cycling the viewpoints (the fusion path costs on points, not on which
  // pose produced them).
  sim::Scenario scenario = sim::MakeTjScenario(2);
  scenario.lidar = cfg.lidar;
  const std::size_t views = scenario.viewpoints.size();
  const sim::LidarSimulator lidar(cfg.lidar);
  const geom::Vec3 mount{0, 0, cfg.lidar.sensor_height};
  std::vector<pc::PointCloud> clouds;
  std::vector<core::NavMetadata> navs;
  {
    Rng scan_rng(cfg.seed);
    for (const auto& vp : scenario.viewpoints) {
      clouds.push_back(lidar.Scan(scenario.scene, vp.ToPose(), scan_rng));
      navs.push_back(core::NavMetadata{vp.position, vp.attitude, mount});
    }
  }
  const auto view_of = [&](std::uint32_t vehicle) {
    return static_cast<std::size_t>(vehicle - 1) % views;
  };

  const core::CooperConfig pipe_cfg = eval::MakeCooperConfig(cfg.lidar);
  EdgeService svc(pipe_cfg, cfg.serve);
  for (std::uint32_t v = 1; v <= cfg.vehicles; ++v) {
    svc.RegisterVehicle(v, &clouds[view_of(v)], navs[view_of(v)]);
  }

  // Sender-side pipeline, shared by every vehicle: package building is
  // const and runs only on the scheduler thread.
  const core::CooperPipeline sender(pipe_cfg);

  // Demand sizes per viewpoint: the serialized bytes each exchange level
  // would put on the air.  Computed once — the planner input must not depend
  // on when a window fires.
  struct ViewSizes {
    std::size_t raw = 0, roi = 0, feat = 0;
  };
  std::vector<ViewSizes> sizes(views);
  for (std::size_t view = 0; view < views; ++view) {
    const auto bytes_at = [&](feat::ExchangeLevel level) {
      return net::SerializePackage(
                 sender.MakeLeveledPackage(1, 0.0,
                                           core::RoiCategory::kFrontSector,
                                           level, navs[view], clouds[view]))
          .size();
    };
    sizes[view].raw = bytes_at(feat::ExchangeLevel::kRawCloud);
    sizes[view].roi = bytes_at(feat::ExchangeLevel::kRoiCloud);
    sizes[view].feat = bytes_at(feat::ExchangeLevel::kVoxelFeatures);
  }

  // --- One shared DSRC channel for the whole edge node (every link draws
  // from the same airtime budget), one transport + Rng per (receiver,
  // sender) link so fragmentation state and loss draws are per-link streams.
  net::DsrcConfig chan_cfg = cfg.serve.admission.planner.channel;
  chan_cfg.loss_prob = cfg.loss_prob;
  net::DsrcChannel edge_channel(chan_cfg);
  struct Link {
    net::Transport transport;
    Rng rng;
    Link(const net::TransportConfig& tc, net::DsrcChannel* shared,
         std::uint64_t seed)
        : transport(tc, shared), rng(seed) {}
  };
  std::map<std::uint64_t, std::unique_ptr<Link>> links;
  const auto link_for = [&](std::uint32_t recv, std::uint32_t send) -> Link& {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(recv) << 32) | send;
    auto it = links.find(key);
    if (it == links.end()) {
      it = links
               .emplace(key, std::make_unique<Link>(
                                 pipe_cfg.transport, &edge_channel,
                                 cfg.seed ^ (key * 0x9e3779b97f4a7c15ull)))
               .first;
    }
    return *it->second;
  };

  // --- Event plumbing: record + observe + digest (kSetup excluded from the
  // digest: config provenance, not behaviour — and verify re-runs may
  // legitimately override threads/shards).
  LoadReport report;
  report.event_digest = kDigestSeed;
  const auto consume = [&](const replay::ServeEventRecord& e) {
    if (trace != nullptr) trace->AppendServeEvent(e);
    if (observer) observer(e);
    if (e.kind != replay::ServeEventKind::kSetup) {
      report.event_digest = replay::DigestServeEvent(e, report.event_digest);
      ++report.events;
    }
  };
  svc.SetEventSink(consume);

  if (trace != nullptr) {
    replay::TraceConfig tc;
    tc.name = cfg.name;
    tc.lidar = cfg.lidar;
    tc.max_package_age_s = cfg.serve.session.max_package_age_s;
    tc.max_future_skew_s = cfg.serve.session.max_future_skew_s;
    tc.max_cooperators =
        static_cast<std::uint32_t>(cfg.serve.session.max_cooperators);
    tc.cache_reconstructions = cfg.serve.session.cache_reconstructions;
    tc.icp_refinement = pipe_cfg.icp_refinement;
    tc.detector_weight_seed = pipe_cfg.detector_weight_seed;
    tc.num_threads = cfg.serve.threads;
    tc.scan_seed = cfg.seed;
    trace->AppendConfig(tc);
  }
  for (const auto& [index, bits] : SetupScalars(cfg)) {
    replay::ServeEventRecord e;
    e.kind = replay::ServeEventKind::kSetup;
    e.vehicle = index;
    e.level = kLevelNone;
    e.arg0 = bits;
    consume(e);
  }

  // --- Ingress schedule.
  Scheduler sched;
  std::vector<double> latencies_ms;

  const auto window = [&](std::uint32_t v, std::uint32_t k, double now) {
    std::vector<feat::CooperatorDemand> demands;
    for (std::uint32_t i = 1; i <= cfg.cooperators && i < cfg.vehicles; ++i) {
      feat::CooperatorDemand d;
      d.sender_id = (v - 1 + i) % cfg.vehicles + 1;
      // Every fourth window wants the whole frame (blind-intersection
      // demand) so the raw rung of the ladder sees traffic too.
      d.demand = (v + k) % 4 == 0 ? feat::DemandClass::kFullFrame
                                  : feat::DemandClass::kFrontSector;
      const ViewSizes& s = sizes[view_of(d.sender_id)];
      d.raw_bytes = s.raw;
      d.roi_bytes = s.roi;
      d.feature_bytes = s.feat;
      demands.push_back(d);
    }
    const WindowPlan plan = svc.PlanWindow(demands, now);
    ++report.windows;
    report.exchanges_admitted += plan.admitted;
    report.exchanges_downgraded += plan.downgraded;
    report.exchanges_rejected += plan.rejected;
    for (const AdmissionDecision& dec : plan.decisions) {
      if (!dec.admitted) continue;
      const std::uint32_t c = dec.sender_id;
      const std::vector<std::uint8_t> bytes =
          net::SerializePackage(sender.MakeLeveledPackage(
              c, now, core::RoiCategory::kFrontSector, dec.level,
              navs[view_of(c)], clouds[view_of(c)]));
      Link& link = link_for(v, c);
      // The transport simulates the whole delivery inline on its own ms
      // clock; map each delivered frame's offset from this send's start
      // back onto the virtual clock and deliver it there.
      const double clock_before_ms = link.transport.clock_ms();
      link.transport.SetFrameTap(
          [&, v, now, clock_before_ms](double at_ms,
                                       const std::vector<std::uint8_t>& f) {
            const double arrive_s = now + (at_ms - clock_before_ms) / 1e3;
            sched.At(arrive_s, [&svc, v, arrive_s, frame = f](double) {
              svc.DeliverFrame(v, arrive_s, frame);
            });
          });
      // Delivery failure (loss beyond the retry budget) is a legitimate
      // outcome — the session just fuses without that cooperator.
      (void)link.transport.SendPackage(bytes, c, link.rng);
      link.transport.SetFrameTap({});
    }
    svc.SubmitFusion(v, now);
  };

  for (std::uint32_t v = 1; v <= cfg.vehicles; ++v) {
    Rng jitter_rng(cfg.seed * 1000003ull + v);
    const double period = 1.0 / cfg.arrival_hz;
    for (std::uint32_t k = 0;; ++k) {
      const double t = k * period + jitter_rng.Uniform(0.0, cfg.jitter_s);
      if (t >= cfg.horizon_s) break;
      sched.At(t, [&, v, k](double now) { window(v, k, now); });
    }
  }

  // Flush ticks past the horizon long enough to drain every job that can
  // still meet its deadline.
  const double flush_until = cfg.horizon_s + cfg.serve.deadline_ms / 1e3 +
                             2.0 * cfg.flush_period_s;
  for (std::uint32_t k = 1; k * cfg.flush_period_s <= flush_until; ++k) {
    sched.At(k * cfg.flush_period_s, [&](double now) {
      svc.PumpTimers(now);
      const std::vector<double> batch = svc.FlushFusions(now);
      latencies_ms.insert(latencies_ms.end(), batch.begin(), batch.end());
    });
  }

  sched.RunUntil(flush_until);

  // --- Summary event: closes the digested stream.
  {
    replay::ServeEventRecord e;
    e.kind = replay::ServeEventKind::kSummary;
    e.time_us = TimeUs(flush_until);
    e.level = kLevelNone;
    e.queue_depth = static_cast<std::uint32_t>(svc.queue_depth());
    e.arg0 = report.event_digest;  // digest over everything before it
    e.arg1 = (static_cast<std::uint64_t>(svc.stats().fusions_completed)
              << 32) |
             static_cast<std::uint32_t>(svc.stats().deadline_missed);
    consume(e);
  }

  report.frames_delivered = svc.stats().frames_delivered;
  report.fusions = svc.stats().fusions_completed;
  report.deadline_missed = svc.stats().deadline_missed;
  for (const std::uint32_t v : svc.vehicles()) {
    report.vehicles.emplace(v, *svc.vehicle(v));
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  report.virtual_p50_ms = Quantile(latencies_ms, 0.50);
  report.virtual_p99_ms = Quantile(latencies_ms, 0.99);
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  if (trace != nullptr) {
    replay::EndRecord end;
    end.step_count = 0;  // serve traces carry no kDetect steps
    end.combined_digest = report.event_digest;
    trace->AppendEnd(end);
  }
  return report;
}

Result<VerifyReport> VerifyLoadTrace(const std::vector<std::uint8_t>& bytes,
                                     const VerifyOverrides& overrides) {
  replay::TraceReader reader(bytes);
  COOPER_RETURN_IF_ERROR(reader.ReadHeader());

  COOPER_ASSIGN_OR_RETURN(replay::Record first, reader.Next());
  if (first.tag != replay::RecordTag::kConfig) {
    return DataLossError("serve trace must start with a config record");
  }
  COOPER_ASSIGN_OR_RETURN(replay::TraceConfig tc,
                          replay::DecodeConfig(first.payload));
  LoadConfig cfg;
  cfg.name = tc.name;
  cfg.lidar = tc.lidar;
  cfg.seed = tc.scan_seed;
  cfg.serve.threads = tc.num_threads;
  cfg.serve.session.max_package_age_s = tc.max_package_age_s;
  cfg.serve.session.max_future_skew_s = tc.max_future_skew_s;
  cfg.serve.session.max_cooperators = tc.max_cooperators;
  cfg.serve.session.cache_reconstructions = tc.cache_reconstructions;

  std::vector<replay::ServeEventRecord> expected;
  replay::EndRecord end;
  bool saw_end = false;
  while (!reader.AtEnd()) {
    COOPER_ASSIGN_OR_RETURN(replay::Record rec, reader.Next());
    if (rec.tag == replay::RecordTag::kServeEvent) {
      COOPER_ASSIGN_OR_RETURN(replay::ServeEventRecord e,
                              replay::DecodeServeEvent(rec.payload));
      if (e.kind == replay::ServeEventKind::kSetup) {
        ApplySetupScalar(&cfg, e.vehicle, e.arg0);
      } else {
        expected.push_back(e);
      }
    } else if (rec.tag == replay::RecordTag::kEnd) {
      COOPER_ASSIGN_OR_RETURN(end, replay::DecodeEnd(rec.payload));
      saw_end = true;
    }
  }
  if (!saw_end) {
    return DataLossError("serve trace has no end record");
  }

  if (overrides.threads > 0) cfg.serve.threads = overrides.threads;
  if (overrides.shards > 0) {
    cfg.serve.shards = static_cast<std::size_t>(overrides.shards);
  }

  VerifyReport vr;
  vr.config = cfg;
  vr.events_expected = expected.size();
  std::size_t cursor = 0;
  const auto compare = [&](const replay::ServeEventRecord& e) {
    if (e.kind == replay::ServeEventKind::kSetup) return;
    if (cursor >= expected.size()) {
      ++vr.mismatches;  // re-run produced extra events
      return;
    }
    const replay::ServeEventRecord& x = expected[cursor++];
    ++vr.events_compared;
    // Shard is the one field allowed to differ: it is informational and the
    // contract says shard count must not change behaviour.
    if (x.kind != e.kind || x.time_us != e.time_us ||
        x.vehicle != e.vehicle || x.level != e.level ||
        x.queue_depth != e.queue_depth || x.arg0 != e.arg0 ||
        x.arg1 != e.arg1) {
      ++vr.mismatches;
    }
  };
  vr.rerun = RunLoad(cfg, nullptr, compare);
  if (cursor != expected.size()) {
    vr.mismatches += expected.size() - cursor;  // recorded events never seen
  }
  vr.digest_match = vr.rerun.event_digest == end.combined_digest;
  return vr;
}

}  // namespace cooper::serve
