#include "core/session.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "feat/fusion.h"
#include "net/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cooper::core {

namespace {

// Exact-match comparison for the reconstruction-cache key: the Eq. 3
// transform is a pure function of the two nav readings, so any bit change
// in the receiver's reading invalidates the cached alignment.
bool SameNav(const NavMetadata& a, const NavMetadata& b) {
  return a.gps_position.x == b.gps_position.x &&
         a.gps_position.y == b.gps_position.y &&
         a.gps_position.z == b.gps_position.z &&
         a.imu_attitude.yaw == b.imu_attitude.yaw &&
         a.imu_attitude.pitch == b.imu_attitude.pitch &&
         a.imu_attitude.roll == b.imu_attitude.roll &&
         a.lidar_mount.x == b.lidar_mount.x &&
         a.lidar_mount.y == b.lidar_mount.y &&
         a.lidar_mount.z == b.lidar_mount.z;
}

bool AllFinite(const geom::Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

// Every comparison with NaN is false, so a NaN timestamp passes both age
// gates and never expires; non-finite nav would put NaN into Eq. 3.
bool FiniteHeader(const ExchangePackage& package) {
  const geom::EulerAngles& att = package.nav.imu_attitude;
  return std::isfinite(package.timestamp_s) &&
         AllFinite(package.nav.gps_position) && std::isfinite(att.yaw) &&
         std::isfinite(att.pitch) && std::isfinite(att.roll) &&
         AllFinite(package.nav.lidar_mount);
}

}  // namespace

CooperativeSession::CooperativeSession(const CooperConfig& config,
                                       const SessionConfig& session_config)
    : pipeline_(config),
      session_config_(session_config),
      reassembler_(config.transport) {}

Status CooperativeSession::ReceivePackage(ExchangePackage package,
                                          double now_s) {
  return ReceivePackageInternal(std::move(package), now_s, nullptr);
}

void CooperativeSession::SeedRecon(std::uint32_t sender_id, double timestamp_s,
                                   DecodedPayload* decoded) {
  if (decoded == nullptr || !session_config_.cache_reconstructions) return;
  ReconEntry entry;
  entry.timestamp_s = timestamp_s;
  if (decoded->level == feat::ExchangeLevel::kVoxelFeatures) {
    entry.sender_map = std::move(decoded->map);
    entry.has_sender_map = true;  // grid alignment deferred to first fusion
  } else {
    entry.sender_frame = std::move(decoded->cloud);
    entry.has_sender_frame = true;  // raw decode; densified lazily at fusion
  }
  recon_cache_[sender_id] = std::move(entry);
}

Status CooperativeSession::ReceivePackageInternal(ExchangePackage package,
                                                  double now_s,
                                                  DecodedPayload* decoded) {
  if (!FiniteHeader(package)) {
    ++stats_.packages_rejected_invalid;
    COOPER_COUNT("session.packages_rejected_invalid");
    return InvalidArgumentError("non-finite timestamp, nav or mount");
  }
  ExpireOld(now_s);
  const double age_s = now_s - package.timestamp_s;
  if (age_s < -session_config_.max_future_skew_s) {
    // A future-dated package would never age past the expiry sweep: reject
    // it instead of letting a skewed (or malicious) clock pin a slot.
    ++stats_.packages_rejected_future;
    COOPER_COUNT("session.packages_rejected_future");
    return FailedPreconditionError("package timestamp ahead of local clock");
  }
  if (age_s > session_config_.max_package_age_s) {
    ++stats_.packages_rejected_stale;
    COOPER_COUNT("session.packages_rejected_stale");
    return FailedPreconditionError("package already stale on arrival");
  }
  const std::uint32_t sender = package.sender_id;
  const double timestamp_s = package.timestamp_s;
  const auto it = packages_.find(sender);
  if (it != packages_.end()) {
    if (timestamp_s <= it->second.timestamp_s) {
      ++stats_.packages_rejected_old;
      COOPER_COUNT("session.packages_rejected_old");
      return FailedPreconditionError("older than the held frame");
    }
    it->second = std::move(package);
    InvalidateRecon(sender);
    SeedRecon(sender, timestamp_s, decoded);
    ++stats_.packages_replaced;
    COOPER_COUNT("session.packages_replaced");
    return Status::Ok();
  }
  if (packages_.size() >= session_config_.max_cooperators) {
    // Evict the stalest cooperator iff the newcomer is strictly fresher.
    // Ties favour the incumbent (stable under same-timestamp bursts); among
    // equally stale incumbents the highest sender id goes first, so the
    // eviction order is fully deterministic.
    auto victim = packages_.begin();
    for (auto cand = packages_.begin(); cand != packages_.end(); ++cand) {
      if (cand->second.timestamp_s < victim->second.timestamp_s ||
          (cand->second.timestamp_s == victim->second.timestamp_s &&
           cand->first > victim->first)) {
        victim = cand;
      }
    }
    if (timestamp_s <= victim->second.timestamp_s) {
      ++stats_.packages_rejected_full;
      COOPER_COUNT("session.packages_rejected_full");
      return ResourceExhaustedError("cooperator slots full");
    }
    InvalidateRecon(victim->first);
    packages_.erase(victim);
    ++stats_.packages_evicted;
    COOPER_COUNT("session.packages_evicted");
  }
  packages_.emplace(sender, std::move(package));
  InvalidateRecon(sender);  // no stale entry may outlive a fresh slot
  SeedRecon(sender, timestamp_s, decoded);
  ++stats_.packages_accepted;
  COOPER_COUNT("session.packages_accepted");
  return Status::Ok();
}

Status CooperativeSession::ReceiveWire(
    const std::vector<std::uint8_t>& package_bytes, double now_s) {
  obs::Span span("session.receive_wire", "core");
  auto package_or = net::DeserializePackage(package_bytes);
  if (!package_or.ok()) {
    // OUT_OF_RANGE is the deserializer's "intact bytes, unknown exchange
    // level" verdict — a newer-protocol sender, not channel corruption.
    if (package_or.status().code() == StatusCode::kOutOfRange) {
      ++stats_.packages_rejected_level;
      COOPER_COUNT("session.packages_rejected_level");
    } else {
      ++stats_.packages_corrupt;
      COOPER_COUNT("session.packages_corrupt");
    }
    return package_or.status();
  }
  // Validate the payload up front: a package whose payload cannot decode
  // would contribute nothing at fusion time, so reject it here and keep
  // whatever older healthy package this sender may already hold.  The
  // decoded cloud/map is kept and seeds the reconstruction cache — fusion
  // must never pay for this decode a second time.
  DecodedPayload decoded;
  decoded.level = package_or->level;
  if (package_or->level == feat::ExchangeLevel::kVoxelFeatures) {
    auto map_or = DecodeFeatures(*package_or);
    if (!map_or.ok()) {
      ++stats_.packages_corrupt;
      COOPER_COUNT("session.packages_corrupt");
      return map_or.status();
    }
    decoded.map = std::move(*map_or);
  } else {
    auto cloud_or = DecodePackage(*package_or);
    if (!cloud_or.ok()) {
      ++stats_.packages_corrupt;
      COOPER_COUNT("session.packages_corrupt");
      return cloud_or.status();
    }
    decoded.cloud = std::move(*cloud_or);
  }
  return ReceivePackageInternal(std::move(*package_or), now_s, &decoded);
}

Status CooperativeSession::ReceiveFrame(
    const std::vector<std::uint8_t>& frame_bytes, double now_s) {
  obs::Span span("session.receive_frame", "core");
  ExpireStaleReassembly(now_s);
  net::Reassembler::Event event = reassembler_.Offer(frame_bytes, now_s * 1e3);
  using Kind = net::Reassembler::Event::Kind;
  switch (event.kind) {
    case Kind::kFrameAccepted:
      return Status::Ok();
    case Kind::kDuplicate:
      // Benign either way, but the two causes are different signals: a
      // fragment of an already-delivered package is the sender retransmitting
      // inside its repair window (the receiver's done-report was lost), while
      // a fragment we already hold in a partial can only be channel
      // duplication — retransmit rounds resend missing fragments only.
      if (event.duplicate_of_completed) {
        ++stats_.frames_retransmitted;
        COOPER_COUNT("session.frames_retransmitted");
      } else {
        ++stats_.frames_duplicate;
        COOPER_COUNT("session.frames_duplicate");
      }
      return Status::Ok();
    case Kind::kCorruptFrame:
      return DataLossError("corrupt transport frame");
    case Kind::kPackageCorrupt:
      ++stats_.packages_corrupt;
      COOPER_COUNT("session.packages_corrupt");
      return DataLossError("reassembled package size mismatch");
    case Kind::kPackageComplete:
      return ReceiveWire(event.package, now_s);
  }
  return InternalError("unreachable reassembly event");
}

void CooperativeSession::ExpireOld(double now_s) {
  for (auto it = packages_.begin(); it != packages_.end();) {
    if (now_s - it->second.timestamp_s > session_config_.max_package_age_s) {
      InvalidateRecon(it->first);
      it = packages_.erase(it);
      ++stats_.packages_expired;
      COOPER_COUNT("session.packages_expired");
    } else {
      ++it;
    }
  }
}

void CooperativeSession::ExpireStaleReassembly(double now_s) {
  const std::size_t expired = reassembler_.ExpireStale(now_s * 1e3);
  stats_.packages_incomplete += expired;
  COOPER_COUNT_N("session.packages_incomplete", expired);
}

CooperOutput CooperativeSession::DetectCooperative(
    const pc::PointCloud& local_cloud, const NavMetadata& local_nav,
    double now_s) {
  obs::Span span("session.detect_cooperative", "core");
  ExpireOld(now_s);
  ExpireStaleReassembly(now_s);
  std::optional<obs::Span> stage(std::in_place, "session.reconstruct", "core");

  // Plan one lane per held package (ascending sender id — the merge order).
  // A hit contributes its cached ego-frame cloud untouched; a miss records
  // what must be recomputed.
  struct Lane {
    std::uint32_t sender = 0;
    const ExchangePackage* package = nullptr;
    ReconEntry* entry = nullptr;  // null when the cache is off
    bool hit = false;
    pc::PointCloud ego;  // miss result when the cache is off
    Status status = Status::Ok();
  };
  const bool use_cache = session_config_.cache_reconstructions;
  std::vector<Lane> lanes;
  lanes.reserve(packages_.size());
  std::vector<std::size_t> misses;
  misses.reserve(packages_.size());
  for (auto& [sender, package] : packages_) {
    Lane lane;
    lane.sender = sender;
    lane.package = &package;
    if (use_cache) {
      ReconEntry& entry = recon_cache_[sender];
      if (entry.timestamp_s != package.timestamp_s) {
        entry = ReconEntry{};
        entry.timestamp_s = package.timestamp_s;
      }
      lane.entry = &entry;
      lane.hit = entry.has_ego && SameNav(entry.ego_nav, local_nav);
    }
    if (lane.hit) {
      ++stats_.recon_cache_hits;
      COOPER_COUNT("session.recon_cache_hit");
    } else {
      ++stats_.recon_cache_misses;
      COOPER_COUNT("session.recon_cache_miss");
      misses.push_back(lanes.size());
    }
    lanes.push_back(std::move(lane));
  }

  // Cache-miss reconstructions fan out over the shared pool: each lane only
  // touches its own sender's state, every input is read-only, and the merge
  // below walks lanes in ascending sender order — so the fused cloud is
  // bit-identical at any thread count.  With the cache off every lane is
  // the pipeline's own FuseLane, which is also the reference the cached
  // lanes must reproduce bit for bit.
  if (!misses.empty()) {
    const pc::PointCloud icp_target = pipeline_.IcpTarget(local_cloud);
    const feat::GridSpec ego_grid =
        feat::GridSpec::FromVoxelConfig(pipeline_.config().detector.voxel);
    icp_scratch_pool_.EnsureLanes(misses.size());
    common::ParallelFor(
        pipeline_.config().num_threads, 0, misses.size(), 1,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) {
            obs::Span lane_span("session.reconstruct_peer", "core");
            Lane& lane = lanes[misses[j]];
            pc::IcpScratch* scratch = &icp_scratch_pool_.Lane(j);
            if (!use_cache) {
              auto ego = pipeline_.FuseLane(local_nav, *lane.package,
                                            icp_target, scratch);
              if (ego.ok()) {
                lane.ego = std::move(*ego);
              } else {
                lane.status = ego.status();
              }
              continue;
            }
            ReconEntry& entry = *lane.entry;
            if (lane.package->level == feat::ExchangeLevel::kVoxelFeatures) {
              // Feature lane: decode unless ReceiveWire seeded the map, then
              // align into the ego grid (nav-only Eq. 3, no ICP, no densify).
              if (!entry.has_sender_map) {
                auto map_or = DecodeFeatures(*lane.package);
                if (!map_or.ok()) {
                  lane.status = map_or.status();
                  continue;
                }
                entry.sender_map = std::move(*map_or);
                entry.has_sender_map = true;
              }
              entry.ego = feat::AlignToGrid(entry.sender_map,
                                            CooperPipeline::ReceiverFromSender(
                                                local_nav, lane.package->nav),
                                            ego_grid)
                              .pseudo;
              entry.ego_nav = local_nav;
              entry.has_ego = true;
              continue;
            }
            obs::Span recon_span("cooper.reconstruct", "core");
            if (!entry.has_sender_frame) {
              auto decoded = DecodePackage(*lane.package);
              if (!decoded.ok()) {
                lane.status = decoded.status();
                continue;
              }
              entry.sender_frame = std::move(*decoded);
              entry.has_sender_frame = true;
              entry.densified = false;
            }
            if (!entry.densified) {
              entry.sender_frame =
                  pipeline_.detector().Densify(entry.sender_frame);
              entry.densified = true;
            }
            pc::PointCloud ego = entry.sender_frame;
            ego.Transform(CooperPipeline::ReceiverFromSender(
                local_nav, lane.package->nav));
            entry.ego =
                pipeline_.RefineAlignment(std::move(ego), icp_target, scratch);
            entry.ego_nav = local_nav;
            entry.has_ego = true;
          }
        });
  }

  // Corrupt payload: evict so this cooperator degrades to single-shot
  // coverage instead of being retried (and skipped) every frame.  The rest
  // merge in ascending sender order.
  std::vector<const pc::PointCloud*> fused_lanes;
  fused_lanes.reserve(lanes.size());
  for (const Lane& lane : lanes) {
    if (!lane.status.ok()) {
      InvalidateRecon(lane.sender);
      packages_.erase(lane.sender);
      ++stats_.packages_corrupt;
      COOPER_COUNT("session.packages_corrupt");
      continue;
    }
    fused_lanes.push_back(use_cache ? &lane.entry->ego : &lane.ego);
  }
  stage.reset();
  return pipeline_.MergeAndDetect(local_cloud, fused_lanes, "session.merge");
}

std::vector<std::uint32_t> CooperativeSession::Cooperators() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(packages_.size());
  for (const auto& [sender, package] : packages_) ids.push_back(sender);
  return ids;
}

}  // namespace cooper::core
