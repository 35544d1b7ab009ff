// Multi-cooperator session management.
//
// The paper's vision is a *network* of CAVs ("multiple vehicles can
// collaborate together", §I), though its evaluation fuses pairs.  A
// `CooperativeSession` is the receiver-side state for N cooperators: it
// keeps the freshest package per sender, expires stale ones (the 1 Hz
// exchange rate makes anything older than ~1.5 s useless for moving
// scenes), enforces a cooperator cap with stalest-first eviction, and fuses
// every fresh cloud with the local scan in one detection pass.
//
// The session is also the wire endpoint: `ReceiveFrame` feeds raw transport
// frames into a reassembler, and completed packages are parsed and decoded
// defensively.  A corrupt, truncated or partially-received package is
// counted in `SessionStats` and never enters the fusion set — the session
// degrades to whatever healthy cooperators remain (ultimately single-shot
// detection) rather than fusing garbage.
//
// Fusion cost is kept flat in the steady state by a per-sender
// reconstruction cache: each cooperator's cloud, reconstructed into the
// ego frame (decode → densify → Eq. 3 → optional ICP), is keyed by
// (sender id, package timestamp, local nav) and reused until the package is
// replaced, evicted or expired.  Cache misses fan out over the shared
// ThreadPool and merge in ascending sender order, so the fused cloud — and
// every detection — is bit-identical at any thread count, with or without
// the cache.  With the cache off each lane is `CooperPipeline::FuseLane`,
// and every frame merges and detects through `CooperPipeline::
// MergeAndDetect`, so one cooperator fuses exactly as
// `CooperPipeline::DetectCooperative` does.  See DESIGN.md "Session fusion".
//
// Packages carry one of three exchange levels (feat::ExchangeLevel).  Cloud
// levels (raw/ROI) follow the path above.  Feature-level packages decode to
// a feat::FeatureMap instead: the map is aligned into the ego detector grid
// (nav-only Eq. 3 — ICP needs raw returns, which feature packages exist to
// avoid shipping), and its pseudo-points merge into the fused cloud in the
// same ascending sender order.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/cooper.h"
#include "net/transport.h"
#include "pointcloud/icp.h"

namespace cooper::core {

struct SessionConfig {
  double max_package_age_s = 1.5;  // discard packages older than this
  // Clock-skew gate: reject packages timestamped further in the future than
  // this.  Without it a future-dated package has negative age, so it passes
  // the staleness gate yet is never removed by the expiry sweep — pinning a
  // cooperator slot until an even-further-future frame arrives.
  double max_future_skew_s = 0.1;
  std::size_t max_cooperators = 8; // bound memory and fusion cost
  // Keep each sender's reconstructed-in-ego-frame cloud alive across
  // frames, so steady-state fusion skips decode + densify + Eq. 3 + ICP for
  // unchanged packages entirely.  Invalidated whenever the sender's package
  // is replaced, evicted or expired.  Fusion output is bit-identical with
  // the cache off; off restores reconstruct-every-frame behaviour.
  bool cache_reconstructions = true;
};

struct SessionStats {
  std::size_t packages_accepted = 0;
  std::size_t packages_replaced = 0;   // newer frame from a known sender
  std::size_t packages_rejected_stale = 0;  // stale on arrival (age gate)
  std::size_t packages_rejected_old = 0;    // older than the held frame
  std::size_t packages_rejected_future = 0; // timestamp ahead of local clock
  std::size_t packages_rejected_full = 0;  // cap hit, incoming not fresher
  std::size_t packages_evicted = 0;        // stalest pushed out at the cap
  std::size_t packages_expired = 0;        // aged out before use
  std::size_t packages_corrupt = 0;        // CRC/parse/decode failure
  std::size_t packages_rejected_level = 0; // intact package, unknown
                                           // exchange level (newer protocol)
  std::size_t packages_rejected_invalid = 0;  // non-finite timestamp, nav
                                              // or lidar mount
  std::size_t packages_incomplete = 0;     // reassembly timed out
  std::size_t frames_retransmitted = 0;    // late retransmits of a package
                                           // already delivered whole
  std::size_t frames_duplicate = 0;        // channel-duplicated fragments of
                                           // a still-partial package
  std::size_t recon_cache_hits = 0;    // fusion reused a cached ego cloud
  std::size_t recon_cache_misses = 0;  // fusion had to reconstruct
};

class CooperativeSession {
 public:
  CooperativeSession(const CooperConfig& config,
                     const SessionConfig& session_config = {});

  /// Accepts a package received at local time `now_s`.  Keeps only the
  /// newest package per sender; rejects regressions, stale-on-arrival
  /// packages, and packages timestamped beyond the future-skew gate.  A
  /// non-finite timestamp, GPS position, IMU attitude or lidar mount is
  /// INVALID_ARGUMENT (counted in `packages_rejected_invalid`).  At
  /// the cooperator cap an incoming package that is fresher than the
  /// stalest held one evicts it (ties keep the incumbent); otherwise the
  /// newcomer is rejected.
  Status ReceivePackage(ExchangePackage package, double now_s);

  /// Wire entry point for one reassembled package: parses + CRC-checks the
  /// bytes and validates that the payload decodes before accepting.  Both
  /// failures are recoverable (counted in `packages_corrupt`).  The decoded
  /// cloud seeds the reconstruction cache, so fusion never decodes an
  /// accepted wire package a second time.
  Status ReceiveWire(const std::vector<std::uint8_t>& package_bytes,
                     double now_s);

  /// Wire entry point for one transport frame.  Feeds the reassembler;
  /// when the frame completes a package it is routed through `ReceiveWire`.
  /// Duplicate fragments are counted (`frames_retransmitted` for late
  /// retransmits of a delivered package, `frames_duplicate` for
  /// channel-duplicated fragments of a partial one) and ignored; partial
  /// packages idle past the reassembly timeout are dropped and counted in
  /// `packages_incomplete`.
  Status ReceiveFrame(const std::vector<std::uint8_t>& frame_bytes,
                      double now_s);

  /// Fuses the local cloud with every fresh cooperator cloud (Eq. 1-3 per
  /// package, ICP-refined when the pipeline enables it) and runs SPOD once
  /// on the merged frame.  Cache-miss reconstructions run in parallel on
  /// the shared pool; clouds merge in ascending sender order, so the result
  /// is bit-identical at any thread count.  Expired packages are dropped as
  /// a side effect; a package whose payload fails to decode is evicted and
  /// counted corrupt, so that cooperator falls back to contributing nothing
  /// instead of poisoning the fusion.
  CooperOutput DetectCooperative(const pc::PointCloud& local_cloud,
                                 const NavMetadata& local_nav, double now_s);

  /// Single-shot baseline through the same detector.
  spod::SpodResult DetectSingleShot(const pc::PointCloud& local_cloud) const {
    return pipeline_.DetectSingleShot(local_cloud);
  }

  /// Housekeeping sweep for a session that is idle at `now_s`: expires aged
  /// packages and stale partial reassemblies without running a fusion.  The
  /// receive/detect paths already sweep inline; this entry point exists for
  /// a service hosting many sessions, where a vehicle that stops sending
  /// would otherwise pin its buffers until the next fusion touches them.
  void Sweep(double now_s) {
    ExpireOld(now_s);
    ExpireStaleReassembly(now_s);
  }

  /// Senders currently holding a fresh slot.
  std::vector<std::uint32_t> Cooperators() const;

  std::size_t num_cooperators() const { return packages_.size(); }
  const SessionStats& stats() const { return stats_; }
  const CooperPipeline& pipeline() const { return pipeline_; }
  const net::Reassembler& reassembler() const { return reassembler_; }

 private:
  // Cached reconstruction state for one sender.  `sender_frame` (the
  // decoded — and after first use densified — cloud in the sender's sensor
  // frame) depends only on the package payload; `ego` additionally depends
  // on the receiver nav it was aligned with, so a receiver pose change
  // re-aligns from `sender_frame` without decoding again.  Feature-level
  // packages use the same two-level scheme: `sender_map` is the decoded map
  // (payload-keyed), `ego` the pseudo-point cloud of its grid-aligned sites
  // (nav-keyed).
  struct ReconEntry {
    double timestamp_s = 0.0;  // package timestamp this entry was built from
    bool has_sender_frame = false;
    bool densified = false;  // ReceiveWire seeds the raw decode; densify is
                             // deferred to the first fusion that needs it
    pc::PointCloud sender_frame;
    bool has_sender_map = false;
    feat::FeatureMap sender_map;  // decoded features, sender sensor frame
    bool has_ego = false;
    NavMetadata ego_nav;  // receiver nav `ego` was aligned under
    pc::PointCloud ego;   // receiver frame; for feature-level packages the
                          // pseudo-points standing in for the unsent returns
  };

  // Pre-validated payload handed from ReceiveWire into the recon cache: a
  // decoded cloud for cloud levels, a decoded map for feature level.
  struct DecodedPayload {
    feat::ExchangeLevel level = feat::ExchangeLevel::kRoiCloud;
    pc::PointCloud cloud;
    feat::FeatureMap map;
  };

  Status ReceivePackageInternal(ExchangePackage package, double now_s,
                                DecodedPayload* decoded);
  void SeedRecon(std::uint32_t sender_id, double timestamp_s,
                 DecodedPayload* decoded);
  void InvalidateRecon(std::uint32_t sender_id) {
    recon_cache_.erase(sender_id);
  }
  void ExpireOld(double now_s);
  void ExpireStaleReassembly(double now_s);

  CooperPipeline pipeline_;
  SessionConfig session_config_;
  net::Reassembler reassembler_;
  std::map<std::uint32_t, ExchangePackage> packages_;  // by sender id
  std::map<std::uint32_t, ReconEntry> recon_cache_;    // by sender id
  pc::IcpScratchPool icp_scratch_pool_;  // one lane per parallel recon
  SessionStats stats_;
};

}  // namespace cooper::core
