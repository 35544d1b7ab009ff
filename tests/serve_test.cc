// Edge fusion service: discrete-event scheduler, deadline-aware executor,
// admission ladder/ledger, session housekeeping, and the headline
// determinism contract — a recorded load run verifies bit-identically under
// different real thread counts and shard counts.
#include <gtest/gtest.h>

#include <vector>

#include "eval/experiment.h"
#include "feat/planner.h"
#include "serve/admission.h"
#include "serve/executor.h"
#include "serve/load.h"
#include "serve/scheduler.h"
#include "serve/service.h"

namespace cooper::serve {
namespace {

// --- Scheduler ---

TEST(SchedulerTest, RunsEventsInTimeThenFifoOrderAndClampsPast) {
  Scheduler sched;
  std::vector<int> order;
  sched.At(0.2, [&](double) { order.push_back(1); });
  sched.At(0.1, [&](double now) {
    order.push_back(2);
    // Scheduling in the past clamps to the current clock: fires at 0.1,
    // after everything already queued for that instant, before 0.2.
    EXPECT_DOUBLE_EQ(now, 0.1);
    sched.At(0.05, [&](double at) {
      order.push_back(4);
      EXPECT_DOUBLE_EQ(at, 0.1);
    });
  });
  sched.At(0.1, [&](double) { order.push_back(3); });  // same-time: FIFO
  const std::size_t ran = sched.RunUntil(1.0);
  EXPECT_EQ(ran, 4u);
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 1}));
  EXPECT_DOUBLE_EQ(sched.now_s(), 1.0);  // clock ends at the horizon
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(SchedulerTest, HorizonSplitsEventStream) {
  Scheduler sched;
  std::vector<int> order;
  sched.At(0.5, [&](double) { order.push_back(1); });
  sched.At(1.5, [&](double) { order.push_back(2); });
  EXPECT_EQ(sched.RunUntil(1.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(sched.RunUntil(2.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, RunUntilMovesEventsWithoutCopying) {
  // A copy-counting callable: each dispatch must move the event (and the
  // state its closure captured) out of the heap, never copy it.
  struct CopyCounter {
    int* copies;
    int id;
    std::vector<int>* order;
    CopyCounter(int* c, int i, std::vector<int>* o)
        : copies(c), id(i), order(o) {}
    CopyCounter(const CopyCounter& other)
        : copies(other.copies), id(other.id), order(other.order) {
      ++*copies;
    }
    CopyCounter(CopyCounter&&) = default;
    void operator()(double) const { order->push_back(id); }
  };
  Scheduler sched;
  int copies = 0;
  std::vector<int> order;
  // Same-time events keep FIFO order among the rest.
  for (int id = 0; id < 12; ++id) {
    sched.At(id % 3 == 0 ? 0.5 : 0.1 * (id % 4),
             CopyCounter(&copies, id, &order));
  }
  const int copies_before = copies;
  EXPECT_EQ(sched.RunUntil(1.0), 12u);
  EXPECT_EQ(copies, copies_before);
  EXPECT_EQ(order, (std::vector<int>{4, 8, 1, 5, 2, 10, 7, 11, 0, 3, 6, 9}));
}

// --- Timer wheel ---

TEST(TimerWheelTest, FiresDueTimersInSlotThenIdOrder) {
  TimerWheel wheel(0.1, 8);
  std::vector<std::uint64_t> fired;
  const auto fire = [&](std::uint64_t id) { fired.push_back(id); };
  wheel.Arm(1, 0.05);
  wheel.Arm(5, 0.41);
  wheel.Arm(4, 0.45);  // same slot as id 5: ascending id fires first
  EXPECT_EQ(wheel.armed(), 3u);
  EXPECT_EQ(wheel.Advance(0.1, fire), 1u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(wheel.Advance(0.5, fire), 2u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 4, 5}));
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheelTest, ParksBeyondSpanCancelsAndReplacesOnRearm) {
  TimerWheel wheel(0.1, 8);  // span 0.8 s
  std::vector<std::uint64_t> fired;
  const auto fire = [&](std::uint64_t id) { fired.push_back(id); };
  wheel.Arm(7, 1.6);             // beyond the span: parked, not fired early
  EXPECT_EQ(wheel.Advance(0.8, fire), 0u);
  EXPECT_EQ(wheel.Advance(1.2, fire), 0u);
  EXPECT_EQ(wheel.Advance(1.7, fire), 1u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{7}));

  wheel.Arm(8, 2.0);
  wheel.Arm(8, 5.0);  // re-arm replaces
  EXPECT_EQ(wheel.armed(), 1u);
  EXPECT_EQ(wheel.Advance(2.5, fire), 0u);
  wheel.Cancel(8);
  EXPECT_EQ(wheel.armed(), 0u);
  EXPECT_EQ(wheel.Advance(9.0, fire), 0u);  // full-revolution jump, nothing
}

// --- Executor ---

TEST(ExecutorTest, SchedulesEdfWithTotalTieBreak) {
  FusionExecutor ex(ExecutorConfig{1});
  ex.Submit(1, 0.0, 2.0);   // seq 0: latest deadline, runs last
  ex.Submit(2, 0.1, 1.0);   // seq 1: deadline tie with seq 2, later due
  ex.Submit(3, 0.05, 1.0);  // seq 2: deadline tie, earlier due -> first
  std::vector<ScheduledJob> scheduled;
  std::vector<FusionJob> missed;
  ex.Flush(0.0, [](const FusionJob&) { return 0.1; }, &scheduled, &missed);
  ASSERT_EQ(scheduled.size(), 3u);
  EXPECT_TRUE(missed.empty());
  EXPECT_EQ(scheduled[0].job.vehicle, 3u);
  EXPECT_EQ(scheduled[1].job.vehicle, 2u);
  EXPECT_EQ(scheduled[2].job.vehicle, 1u);
  // One modeled core: jobs serialize; start also waits for the due time.
  EXPECT_DOUBLE_EQ(scheduled[0].start_s, 0.05);
  EXPECT_DOUBLE_EQ(scheduled[0].finish_s, 0.15);
  EXPECT_DOUBLE_EQ(scheduled[1].start_s, 0.15);
  EXPECT_DOUBLE_EQ(scheduled[2].start_s, 0.25);
  EXPECT_EQ(ex.stats().jobs_scheduled, 3u);
}

TEST(ExecutorTest, DropsJobsThatCannotMeetTheirDeadline) {
  FusionExecutor ex(ExecutorConfig{1});
  ex.Submit(1, 0.0, 0.4);  // cost 0.5 -> cannot finish by 0.4
  ex.Submit(2, 0.0, 0.6);  // fits exactly on the free core
  ex.Submit(3, 0.0, 0.9);  // core busy until 0.5, finish 1.0 > 0.9 -> miss
  std::vector<ScheduledJob> scheduled;
  std::vector<FusionJob> missed;
  ex.Flush(0.0, [](const FusionJob&) { return 0.5; }, &scheduled, &missed);
  ASSERT_EQ(scheduled.size(), 1u);
  EXPECT_EQ(scheduled[0].job.vehicle, 2u);
  ASSERT_EQ(missed.size(), 2u);
  EXPECT_EQ(missed[0].vehicle, 1u);  // EDF order: earliest deadline decided
  EXPECT_EQ(missed[1].vehicle, 3u);  // first
  EXPECT_EQ(ex.stats().jobs_missed, 2u);
  EXPECT_EQ(ex.queue_depth(), 0u);  // flush always drains
}

TEST(ExecutorTest, CoreAvailabilityPersistsAcrossFlushes) {
  FusionExecutor ex(ExecutorConfig{1});
  ex.Submit(1, 0.0, 2.0);
  std::vector<ScheduledJob> scheduled;
  std::vector<FusionJob> missed;
  ex.Flush(0.0, [](const FusionJob&) { return 1.0; }, &scheduled, &missed);
  ASSERT_EQ(scheduled.size(), 1u);
  EXPECT_DOUBLE_EQ(scheduled[0].finish_s, 1.0);

  // The core stays busy until t=1.0 even though real time is only t=0.1:
  // a backlog carries into the next flush exactly like a busy machine.
  scheduled.clear();
  ex.Submit(2, 0.1, 1.05);  // would need to start by 0.95: impossible
  ex.Submit(3, 0.1, 1.5);   // starts when the core frees at 1.0
  ex.Flush(0.1, [](const FusionJob&) { return 0.1; }, &scheduled, &missed);
  ASSERT_EQ(scheduled.size(), 1u);
  EXPECT_EQ(scheduled[0].job.vehicle, 3u);
  EXPECT_DOUBLE_EQ(scheduled[0].start_s, 1.0);
  ASSERT_EQ(missed.size(), 1u);
  EXPECT_EQ(missed[0].vehicle, 2u);
}

// --- Admission ---

std::vector<feat::CooperatorDemand> MakeDemands(int n) {
  std::vector<feat::CooperatorDemand> demands;
  for (int i = 0; i < n; ++i) {
    feat::CooperatorDemand d;
    d.sender_id = static_cast<std::uint32_t>(10 + i);
    d.demand = feat::DemandClass::kFullFrame;  // prefers the raw rung
    d.raw_bytes = 4000;
    d.roi_bytes = 2000;
    d.feature_bytes = 500;
    demands.push_back(d);
  }
  return demands;
}

TEST(AdmissionTest, FullQueueRejectsWholeWindowInAscendingSenderOrder) {
  AdmissionConfig cfg;
  cfg.max_queue = 100;
  AdmissionController adm(cfg);
  auto demands = MakeDemands(3);
  std::swap(demands[0], demands[2]);  // arrival order must not matter
  const WindowPlan plan = adm.PlanWindow(demands, /*queue_depth=*/100, 0.0);
  ASSERT_EQ(plan.decisions.size(), 3u);
  EXPECT_EQ(plan.rejected, 3u);
  EXPECT_EQ(plan.admitted, 0u);
  for (std::size_t i = 0; i < plan.decisions.size(); ++i) {
    EXPECT_FALSE(plan.decisions[i].admitted);
    EXPECT_EQ(plan.decisions[i].sender_id, 10u + i);
  }
  EXPECT_EQ(adm.stats().windows_rejected_queue, 1u);
}

TEST(AdmissionTest, QueueDepthStepsExchangesDownTheLadder) {
  AdmissionConfig cfg;
  cfg.max_queue = 100;  // raw cap at depth >= 50, feature cap at >= 75
  AdmissionController adm(cfg);

  // Idle node: kFullFrame demand earns the raw rung.
  WindowPlan idle = adm.PlanWindow(MakeDemands(1), 0, 0.0);
  ASSERT_EQ(idle.decisions.size(), 1u);
  EXPECT_TRUE(idle.decisions[0].admitted);
  EXPECT_EQ(idle.decisions[0].level, feat::ExchangeLevel::kRawCloud);
  EXPECT_FALSE(idle.decisions[0].downgraded);

  // Half-full queue: capped at ROI, reported as a downgrade.
  WindowPlan busy = adm.PlanWindow(MakeDemands(1), 50, 0.0);
  EXPECT_TRUE(busy.decisions[0].admitted);
  EXPECT_EQ(busy.decisions[0].level, feat::ExchangeLevel::kRoiCloud);
  EXPECT_TRUE(busy.decisions[0].downgraded);
  EXPECT_EQ(busy.downgraded, 1u);

  // Nearly saturated: features only.
  WindowPlan sat = adm.PlanWindow(MakeDemands(1), 75, 0.0);
  EXPECT_TRUE(sat.decisions[0].admitted);
  EXPECT_EQ(sat.decisions[0].level, feat::ExchangeLevel::kVoxelFeatures);
  EXPECT_TRUE(sat.decisions[0].downgraded);
}

TEST(AdmissionTest, AirtimeLedgerStarvesHighestSendersThenRolls) {
  AdmissionConfig cfg;
  cfg.airtime_period_s = 1.0;
  // Budget fits exactly one raw exchange per period (plus slack well short
  // of two), so of each window's demands only the lowest sender id wins.
  const double one_ms =
      feat::AirtimeMs(cfg.planner.channel, MakeDemands(1)[0].raw_bytes);
  cfg.airtime_budget_fraction = 1.5 * one_ms / 1000.0;
  AdmissionController adm(cfg);

  const WindowPlan plan = adm.PlanWindow(MakeDemands(3), 0, 0.2);
  ASSERT_EQ(plan.decisions.size(), 3u);
  EXPECT_TRUE(plan.decisions[0].admitted);   // sender 10
  EXPECT_FALSE(plan.decisions[1].admitted);  // sender 11: over the ledger
  EXPECT_FALSE(plan.decisions[2].admitted);  // sender 12
  EXPECT_EQ(plan.admitted, 1u);
  EXPECT_EQ(plan.rejected, 2u);
  EXPECT_NEAR(plan.ledger_spent_ms, one_ms, 1e-9);

  // Same period: the ledger remembers earlier spending.
  const WindowPlan again = adm.PlanWindow(MakeDemands(1), 0, 0.6);
  EXPECT_FALSE(again.decisions[0].admitted);

  // Next period (anchored to multiples of the length): budget is fresh.
  const WindowPlan rolled = adm.PlanWindow(MakeDemands(1), 0, 1.3);
  EXPECT_TRUE(rolled.decisions[0].admitted);
  EXPECT_GT(adm.stats().windows_rejected_airtime, 0u);
}

// --- EdgeService ---

sim::LidarConfig TinyLidar() {
  sim::LidarConfig lidar;
  lidar.beams = 6;
  lidar.azimuth_steps = 96;
  return lidar;
}

TEST(EdgeServiceTest, ShardHashIsStableAndInRange) {
  ServeConfig cfg;
  cfg.shards = 4;
  EdgeService svc(eval::MakeCooperConfig(TinyLidar()), cfg);
  bool multiple_shards_used = false;
  for (std::uint32_t v = 1; v <= 64; ++v) {
    const std::uint32_t shard = svc.ShardOf(v);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, svc.ShardOf(v));  // pure function of the id
    if (shard != svc.ShardOf(1)) multiple_shards_used = true;
  }
  EXPECT_TRUE(multiple_shards_used);  // the avalanche actually spreads
}

TEST(EdgeServiceTest, SweepTimerExpiresIdleSessionState) {
  LoadConfig load = MakeLoadConfig();
  load.lidar = TinyLidar();
  const core::CooperConfig pipe = eval::MakeCooperConfig(load.lidar);
  ServeConfig cfg;
  cfg.session.max_package_age_s = 1.5;
  EdgeService svc(pipe, cfg);

  sim::Scenario scenario = sim::MakeTjScenario(2);
  scenario.lidar = load.lidar;
  const sim::LidarSimulator lidar(load.lidar);
  Rng rng(7);
  const pc::PointCloud cloud =
      lidar.Scan(scenario.scene, scenario.viewpoints[0].ToPose(), rng);
  const core::NavMetadata nav{scenario.viewpoints[0].position,
                              scenario.viewpoints[0].attitude,
                              {0, 0, load.lidar.sensor_height}};
  svc.RegisterVehicle(1, &cloud, nav);

  core::CooperativeSession* session = svc.session(1);
  ASSERT_NE(session, nullptr);
  ASSERT_TRUE(session
                  ->ReceivePackage(
                      session->pipeline().MakePackage(
                          2, 10.0, core::RoiCategory::kFullFrame, nav, cloud),
                      10.0)
                  .ok());
  EXPECT_EQ(session->num_cooperators(), 1u);

  // No fusion ever touches this vehicle again; the sweep timer alone must
  // release the aged package.
  svc.PumpTimers(12.0);
  EXPECT_EQ(session->num_cooperators(), 0u);
  EXPECT_EQ(session->stats().packages_expired, 1u);
}

// --- Load harness: the determinism contract ---

LoadConfig SmallLoad() {
  LoadConfig cfg = MakeLoadConfig();
  cfg.lidar = TinyLidar();
  cfg.seed = 11;
  cfg.vehicles = 6;
  cfg.cooperators = 2;
  cfg.arrival_hz = 10.0;
  cfg.horizon_s = 0.11;  // two windows per vehicle
  return cfg;
}

TEST(LoadHarnessTest, RunCompletesFusionsForEveryVehicle) {
  const LoadReport report = RunLoad(SmallLoad());
  EXPECT_EQ(report.windows, 12u);
  EXPECT_GT(report.fusions, 0u);
  EXPECT_EQ(report.deadline_missed, 0u);
  EXPECT_GT(report.frames_delivered, 0u);
  EXPECT_GT(report.exchanges_admitted, 0u);
  EXPECT_EQ(report.vehicles.size(), 6u);
  for (const auto& [id, state] : report.vehicles) {
    EXPECT_GE(state.fusions, 1u) << "vehicle " << id;
    EXPECT_NE(state.last_digest, 0u) << "vehicle " << id;
  }
  EXPECT_GT(report.virtual_p99_ms, 0.0);
}

TEST(LoadHarnessTest, EventStreamIsIdenticalAcrossThreadsAndShards) {
  LoadConfig base = SmallLoad();
  replay::TraceWriter trace;
  const LoadReport recorded = RunLoad(base, &trace);
  ASSERT_GT(recorded.events, 0u);

  // Same trace, re-run under every {threads} x {shards} corner the contract
  // names: the event stream must match bit for bit (shard field excluded).
  for (const auto& [threads, shards] : std::vector<std::pair<int, int>>{
           {1, 4}, {4, 1}, {4, 4}}) {
    VerifyOverrides ov;
    ov.threads = threads;
    ov.shards = shards;
    const auto verdict = VerifyLoadTrace(trace.bytes(), ov);
    ASSERT_TRUE(verdict.ok()) << verdict.status().message();
    EXPECT_EQ(verdict->mismatches, 0u)
        << "threads=" << threads << " shards=" << shards;
    EXPECT_TRUE(verdict->digest_match);
    EXPECT_EQ(verdict->events_compared, recorded.events);
    EXPECT_EQ(verdict->rerun.event_digest, recorded.event_digest);
    // Per-vehicle outcomes agree too, not just the stream.
    for (const auto& [id, state] : recorded.vehicles) {
      const auto it = verdict->rerun.vehicles.find(id);
      ASSERT_NE(it, verdict->rerun.vehicles.end());
      EXPECT_EQ(it->second.chained_digest, state.chained_digest);
      EXPECT_EQ(it->second.fusions, state.fusions);
    }
  }
}

TEST(LoadHarnessTest, VerifyRejectsCorruptTrace) {
  LoadConfig base = SmallLoad();
  base.vehicles = 2;
  base.horizon_s = 0.01;
  replay::TraceWriter trace;
  (void)RunLoad(base, &trace);
  std::vector<std::uint8_t> bytes = trace.bytes();
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-stream
  const auto verdict = VerifyLoadTrace(bytes);
  EXPECT_FALSE(verdict.ok());  // CRC framing catches it as DATA_LOSS
}

}  // namespace
}  // namespace cooper::serve
