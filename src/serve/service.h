// Sharded multi-session edge fusion service.
//
// The paper's deployment story (and F-Cooper's framing) is a roadside or
// edge-cloud node fusing point-cloud packages from every nearby CAV.  The
// `EdgeService` is that node: it owns one `CooperativeSession` per
// registered vehicle, hashed onto N shards (each shard bounds its own
// reassembly memory and reports its own queue gauge), feeds wire frames into
// the right session, runs admission control over cooperator exchange
// requests, and batches deadline-checked fusion jobs onto the thread pool.
//
// Determinism contract (the serve conformance property): with a fixed seed,
// the event stream — admission decisions, job schedule, deadline misses,
// per-vehicle detection digests — is bit-identical at any real thread count
// and any shard count.  Three design rules make that hold:
//
//   1. all control flow runs on the virtual clock (serve::Scheduler), and
//      compute capacity is *modeled* (serve::FusionExecutor) — real threads
//      only parallelise the data-parallel interior of one fusion batch;
//   2. shards are memory/observability domains, never ordering domains: no
//      decision reads the shard id, and emitted events exclude it from
//      digests (replay::DigestServeEvent);
//   3. per-vehicle sessions are independent (each fuses with its own state,
//      single-threaded), so a batch may run them concurrently in any order
//      and still produce per-vehicle-identical outputs.
//
// See DESIGN.md §12 "Edge service".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/session.h"
#include "replay/trace.h"
#include "serve/admission.h"
#include "serve/executor.h"
#include "serve/scheduler.h"

namespace cooper::serve {

struct ServeConfig {
  std::size_t shards = 1;       // memory/gauge domains; never affects results
  double deadline_ms = 100.0;   // DSRC frame deadline per fusion job
  std::size_t max_queue = 256;  // admission backlog cap (serve.max_queue)
  int modeled_cores = 4;        // virtual compute servers (executor)
  int threads = 1;              // real threads for the fusion batch interior
  // Modeled fusion service time: base + per_point * (local + cooperator
  // points).  Modeled constants set by the caller; nothing fits them to the
  // real pipeline's cost.
  double base_service_us = 2000.0;
  double per_point_us = 10.0;
  // Housekeeping timer wheel: session expiry sweeps per vehicle.
  double sweep_slot_s = 0.05;
  std::size_t sweep_slots = 64;
  double sweep_period_s = 0.5;  // per-vehicle sweep cadence
  // Reassembly byte budget per shard, split over the shard's vehicles at
  // registration time (see RegisterVehicle).
  std::size_t shard_reassembly_budget_bytes = 8u << 20;
  AdmissionConfig admission;
  core::SessionConfig session;
};

struct ServeStats {
  std::size_t vehicles = 0;
  std::size_t frames_delivered = 0;
  std::size_t fusions_completed = 0;
  std::size_t deadline_missed = 0;
};

/// Per-vehicle outcome accumulator.
struct VehicleState {
  std::uint32_t shard = 0;
  std::size_t fusions = 0;
  std::size_t misses = 0;
  std::uint64_t last_digest = 0;     // detections digest of the last fusion
  std::uint64_t chained_digest = 0;  // digest chained over every fusion
};

class EdgeService {
 public:
  EdgeService(const core::CooperConfig& pipeline_config,
              const ServeConfig& config);

  /// Deterministic vehicle -> shard hash (SplitMix64 finalizer).
  std::uint32_t ShardOf(std::uint32_t vehicle) const;

  /// Registers a vehicle and creates its session.  `local_cloud` and `nav`
  /// are the vehicle's own scan and pose, borrowed for the service's
  /// lifetime (the load harness owns them).  The shard's reassembly budget
  /// is split evenly over the vehicles registered to it *so far* — register
  /// the fleet before traffic starts for an even split.
  void RegisterVehicle(std::uint32_t vehicle, const pc::PointCloud* local_cloud,
                       const core::NavMetadata& nav);

  /// Observer for every service event, fired in deterministic order on the
  /// scheduler thread.  The load harness records these into a trace and
  /// chains the conformance digest over them.
  using EventSink = std::function<void(const replay::ServeEventRecord&)>;
  void SetEventSink(EventSink sink) { sink_ = std::move(sink); }

  /// Ingress: one transport frame for `vehicle`'s session, delivered at
  /// virtual time `now_s`.
  void DeliverFrame(std::uint32_t vehicle, double now_s,
                    const std::vector<std::uint8_t>& frame_bytes);

  /// Admission for one exchange window (emits kAdmit/kDowngrade/kReject
  /// per cooperator).  `queue_depth` is read from the executor.
  WindowPlan PlanWindow(const std::vector<feat::CooperatorDemand>& demands,
                        double now_s);

  /// Queues a fusion job for `vehicle`, deadline `now_s + deadline_ms`.
  void SubmitFusion(std::uint32_t vehicle, double now_s);

  /// Runs every queued job that can meet its deadline: EDF-ordered modeled
  /// schedule, then the real fusions batched over `threads` via
  /// ParallelFor, then events (kJobStart/kJobComplete/kDeadlineMiss) in
  /// schedule order.  Returns modeled latencies (finish - due, ms) of the
  /// completed jobs, in schedule order.
  std::vector<double> FlushFusions(double now_s);

  /// Advances the sweep wheel: sessions whose sweep timer is due get their
  /// expiry housekeeping run.
  void PumpTimers(double now_s);

  std::size_t queue_depth() const { return executor_.queue_depth(); }
  const ServeStats& stats() const { return stats_; }
  const AdmissionController& admission() const { return admission_; }
  const FusionExecutor& executor() const { return executor_; }
  const VehicleState* vehicle(std::uint32_t id) const;
  core::CooperativeSession* session(std::uint32_t id);
  const ServeConfig& config() const { return config_; }
  std::vector<std::uint32_t> vehicles() const;

 private:
  void Emit(replay::ServeEventKind kind, double now_s, std::uint32_t vehicle,
            std::uint8_t level, std::uint64_t arg0, std::uint64_t arg1);
  void UpdateShardGauges();

  struct Entry {
    std::unique_ptr<core::CooperativeSession> session;
    const pc::PointCloud* local_cloud = nullptr;
    core::NavMetadata nav;
    VehicleState state;
  };

  core::CooperConfig pipeline_config_;
  ServeConfig config_;
  std::map<std::uint32_t, Entry> entries_;  // by vehicle id
  std::vector<std::size_t> shard_population_;
  AdmissionController admission_;
  FusionExecutor executor_;
  TimerWheel sweep_wheel_;
  EventSink sink_;
  ServeStats stats_;
};

}  // namespace cooper::serve
