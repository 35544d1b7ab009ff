#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/session.h"
#include "eval/experiment.h"
#include "eval/matching.h"
#include "net/fault.h"
#include "net/serialize.h"
#include "sim/lidar.h"
#include "sim/scenario.h"
#include "sim/scene.h"

namespace cooper::core {
namespace {

CooperConfig TestConfig() {
  sim::LidarConfig lidar = sim::Vlp16Config();
  lidar.azimuth_steps = 900;
  return eval::MakeCooperConfig(lidar);
}

ExchangePackage TinyPackage(std::uint32_t sender, double timestamp) {
  pc::PointCloud cloud;
  cloud.Add({5, 0, 0}, 0.5f);
  cloud.Add({5.1, 0, 0.4}, 0.5f);
  const pc::CloudCodec codec;
  return BuildPackage(sender, timestamp, RoiCategory::kFullFrame,
                      NavMetadata{{0, 0, 0}, {0, 0, 0}, {0, 0, 1.9}}, cloud,
                      codec);
}

TEST(SessionTest, AcceptsFreshPackages) {
  CooperativeSession session(TestConfig());
  EXPECT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.1).ok());
  EXPECT_TRUE(session.ReceivePackage(TinyPackage(2, 10.0), 10.1).ok());
  EXPECT_EQ(session.num_cooperators(), 2u);
  EXPECT_EQ(session.Cooperators(), (std::vector<std::uint32_t>{1, 2}));
}

TEST(SessionTest, NewerFrameReplacesOlder) {
  CooperativeSession session(TestConfig());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 11.0), 11.0).ok());
  EXPECT_EQ(session.num_cooperators(), 1u);
  EXPECT_EQ(session.stats().packages_replaced, 1u);
}

TEST(SessionTest, RegressingTimestampRejected) {
  CooperativeSession session(TestConfig());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 11.0), 11.0).ok());
  const Status s = session.ReceivePackage(TinyPackage(1, 10.0), 11.0);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(SessionTest, StaleOnArrivalRejected) {
  CooperativeSession session(TestConfig());
  const Status s = session.ReceivePackage(TinyPackage(1, 10.0), 20.0);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.num_cooperators(), 0u);
}

TEST(SessionTest, DuplicateSenderEqualTimestampRejected) {
  // A replacement must be *strictly* newer: a resent copy of the same frame
  // (same sender, same timestamp) is rejected, not silently re-accepted.
  CooperativeSession session(TestConfig());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  const Status s = session.ReceivePackage(TinyPackage(1, 10.0), 10.0);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.stats().packages_replaced, 0u);
  EXPECT_EQ(session.num_cooperators(), 1u);
}

TEST(SessionTest, CooperatorCapEnforced) {
  SessionConfig sc;
  sc.max_cooperators = 2;
  CooperativeSession session(TestConfig(), sc);
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(2, 10.0), 10.0).ok());
  // The newcomer is no fresher than the stalest incumbent: rejected.
  EXPECT_EQ(session.ReceivePackage(TinyPackage(3, 10.0), 10.0).code(),
            StatusCode::kResourceExhausted);
  // Replacing a held sender still works at the cap.
  EXPECT_TRUE(session.ReceivePackage(TinyPackage(2, 10.5), 10.5).ok());
}

TEST(SessionTest, CapEvictsStalestForFresherNewcomer) {
  SessionConfig sc;
  sc.max_cooperators = 2;
  CooperativeSession session(TestConfig(), sc);
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(2, 10.8), 10.8).ok());
  // Sender 3 arrives fresher than the stalest incumbent (1 @ 10.0): 1 goes.
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(3, 11.0), 11.0).ok());
  EXPECT_EQ(session.Cooperators(), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(session.stats().packages_evicted, 1u);
  // Next eviction takes the now-stalest (2 @ 10.8): order is by timestamp.
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(4, 11.2), 11.2).ok());
  EXPECT_EQ(session.Cooperators(), (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(session.stats().packages_evicted, 2u);
}

TEST(SessionTest, CapEvictionTieBreaksOnHighestSenderId) {
  SessionConfig sc;
  sc.max_cooperators = 3;
  CooperativeSession session(TestConfig(), sc);
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(5, 10.0), 10.0).ok());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(3, 10.0), 10.0).ok());
  // All equally stale: the deterministic victim is the highest sender id.
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(9, 10.4), 10.4).ok());
  EXPECT_EQ(session.Cooperators(), (std::vector<std::uint32_t>{1, 3, 9}));
}

TEST(SessionTest, ExpiryBoundaryExactlyAtMaxAge) {
  SessionConfig sc;
  sc.max_package_age_s = 1.5;
  CooperativeSession session(TestConfig(), sc);
  // Exactly max_package_age_s old on arrival: still acceptable (the check is
  // strictly greater-than).
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 11.5).ok());
  pc::PointCloud local;
  local.Add({3, 0, 0}, 0.5f);
  const NavMetadata nav{{0, 0, 0}, {0, 0, 0}, {0, 0, 1.9}};
  // At now == timestamp + max_age the package survives the expiry sweep...
  session.DetectCooperative(local, nav, 11.5);
  EXPECT_EQ(session.num_cooperators(), 1u);
  EXPECT_EQ(session.stats().packages_expired, 0u);
  // ...and one tick past it, it ages out.
  session.DetectCooperative(local, nav, 11.5 + 1e-9);
  EXPECT_EQ(session.num_cooperators(), 0u);
  EXPECT_EQ(session.stats().packages_expired, 1u);
}

TEST(SessionTest, PackagesExpireOverTime) {
  CooperativeSession session(TestConfig());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(2, 12.0), 12.0).ok());
  // At t = 13, sender 1's frame (age 3 s) is stale, sender 2's is fresh.
  pc::PointCloud local;
  local.Add({3, 0, 0}, 0.5f);
  session.DetectCooperative(local, NavMetadata{{0, 0, 0}, {0, 0, 0}, {0, 0, 1.9}},
                            13.0);
  EXPECT_EQ(session.num_cooperators(), 1u);
  EXPECT_EQ(session.stats().packages_expired, 1u);
}

TEST(SessionTest, MoreCooperatorsNeverDetectFewer) {
  // Three vehicles in the dense lot: each added cooperator's points can only
  // add evidence.
  const auto scenario = sim::MakeTjScenario(2);
  const auto cfg = eval::MakeCooperConfig(scenario.lidar);
  const sim::LidarSimulator lidar(scenario.lidar);
  Rng rng(5);

  std::vector<pc::PointCloud> clouds;
  std::vector<NavMetadata> navs;
  const geom::Vec3 mount{0, 0, scenario.lidar.sensor_height};
  for (const auto& vp : scenario.viewpoints) {
    clouds.push_back(lidar.Scan(scenario.scene, vp.ToPose(), rng));
    navs.push_back(NavMetadata{vp.position, vp.attitude, mount});
  }

  // GT boxes in viewpoint 0's sensor frame.
  const geom::Pose sensor0 =
      scenario.viewpoints[0].ToPose() * geom::Pose(geom::Mat3::Identity(), mount);
  std::vector<geom::Box3> gt;
  for (const auto& obj : scenario.scene.objects()) {
    if (obj.cls == sim::ObjectClass::kCar) {
      gt.push_back(obj.box.Transformed(sensor0.Inverse()));
    }
  }
  auto matched_count = [&](const spod::SpodResult& result) {
    std::vector<spod::Detection> confident;
    for (const auto& d : result.detections) {
      if (d.score >= eval::kScoreThreshold) confident.push_back(d);
    }
    int n = 0;
    for (const auto& m : eval::MatchDetections(confident, gt)) n += m.matched;
    return n;
  };

  CooperativeSession session(cfg);
  const int alone = matched_count(session.DetectSingleShot(clouds[0]));
  int prev = alone;
  for (std::size_t k = 1; k < scenario.viewpoints.size(); ++k) {
    ASSERT_TRUE(session
                    .ReceivePackage(session.pipeline().MakePackage(
                                        static_cast<std::uint32_t>(k), 0.0,
                                        RoiCategory::kFullFrame, navs[k],
                                        clouds[k]),
                                    0.0)
                    .ok());
    const int with_k = matched_count(
        session.DetectCooperative(clouds[0], navs[0], 0.0).fused);
    EXPECT_GE(with_k, prev - 1) << "cooperators: " << k;  // allow 1 flake
    prev = std::max(prev, with_k);
  }
  EXPECT_GT(prev, alone);
}

TEST(SessionTest, FutureTimestampRejectedBeyondSkewGate) {
  // Regression: a future-dated package has negative age, so it used to pass
  // the staleness gate and — because the expiry sweep is age-based too —
  // was never removed, pinning a cooperator slot indefinitely.
  SessionConfig sc;
  sc.max_future_skew_s = 0.1;
  CooperativeSession session(TestConfig(), sc);
  const Status s = session.ReceivePackage(TinyPackage(1, 100.0), 10.0);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.num_cooperators(), 0u);
  EXPECT_EQ(session.stats().packages_rejected_future, 1u);
  // Exactly at the skew bound the package is still acceptable (strict <).
  EXPECT_TRUE(session.ReceivePackage(TinyPackage(2, 10.1), 10.0).ok());
  // Just past it, rejected.
  EXPECT_EQ(session.ReceivePackage(TinyPackage(3, 10.2 + 1e-9), 10.1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.stats().packages_rejected_future, 2u);
}

TEST(SessionTest, StaleAndRegressionRejectionsCountedSeparately) {
  CooperativeSession session(TestConfig());
  // Stale on arrival: only the stale counter moves.
  ASSERT_EQ(session.ReceivePackage(TinyPackage(1, 10.0), 20.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.stats().packages_rejected_stale, 1u);
  EXPECT_EQ(session.stats().packages_rejected_old, 0u);
  // Regression against a held frame: only the regression counter moves.
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 20.0), 20.0).ok());
  ASSERT_EQ(session.ReceivePackage(TinyPackage(1, 19.5), 20.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.stats().packages_rejected_stale, 1u);
  EXPECT_EQ(session.stats().packages_rejected_old, 1u);
}

TEST(SessionTest, StaleOnArrivalBoundaryExactlyAtMaxAge) {
  SessionConfig sc;
  sc.max_package_age_s = 1.5;
  CooperativeSession session(TestConfig(), sc);
  // Exactly max_package_age_s old: acceptable (the gate is strictly >)...
  EXPECT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 11.5).ok());
  EXPECT_EQ(session.stats().packages_rejected_stale, 0u);
  // ...one tick past it, rejected and counted as stale, not as regression.
  EXPECT_EQ(session.ReceivePackage(TinyPackage(2, 10.0), 11.5 + 1e-9).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.stats().packages_rejected_stale, 1u);
  EXPECT_EQ(session.stats().packages_rejected_old, 0u);
}

TEST(SessionTest, SameTimestampBurstEvictionIsDeterministic) {
  // At the cap, a burst of same-timestamp newcomers must leave the session
  // in a state independent of arrival interleaving: ties keep incumbents,
  // and among equally stale incumbents the highest sender id goes first.
  SessionConfig sc;
  sc.max_cooperators = 2;
  CooperativeSession session(TestConfig(), sc);
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(2, 10.0), 10.0).ok());
  // Same-timestamp burst: every newcomer ties the stalest incumbent and is
  // rejected — the held set never churns.
  for (std::uint32_t sender : {5u, 6u, 7u}) {
    EXPECT_EQ(session.ReceivePackage(TinyPackage(sender, 10.0), 10.0).code(),
              StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(session.Cooperators(), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(session.stats().packages_rejected_full, 3u);
  // A strictly fresher burst at one shared timestamp: the first arrival
  // evicts the higher-id equally-stale incumbent (2), the second evicts the
  // remaining stale one (1); the third ties and is rejected.
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(5, 10.5), 10.5).ok());
  EXPECT_EQ(session.Cooperators(), (std::vector<std::uint32_t>{1, 5}));
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(6, 10.5), 10.5).ok());
  EXPECT_EQ(session.Cooperators(), (std::vector<std::uint32_t>{5, 6}));
  EXPECT_EQ(session.ReceivePackage(TinyPackage(7, 10.5), 10.5).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(session.stats().packages_evicted, 2u);
}

TEST(SessionTest, CorruptCooperatorSkippedNotFatal) {
  CooperativeSession session(TestConfig());
  ExchangePackage bad = TinyPackage(1, 10.0);
  bad.payload = {0xff, 0xee, 0xdd};
  ASSERT_TRUE(session.ReceivePackage(bad, 10.0).ok());  // accepted at face value
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(2, 10.0), 10.0).ok());
  pc::PointCloud local;
  local.Add({3, 0, 0}, 0.5f);
  const auto out = session.DetectCooperative(
      local, NavMetadata{{0, 0, 0}, {0, 0, 0}, {0, 0, 1.9}}, 10.0);
  // Only the healthy cooperator's 2 points arrive.
  EXPECT_EQ(out.transmitter_points, 2u);
}

// ---------------------------------------------------------------------------
// Reconstruction cache + deterministic parallel fusion.

// Fusion outputs must be *bit*-identical across cache and thread settings, so
// every comparison below is exact, never approximate.
void ExpectBitIdentical(const CooperOutput& a, const CooperOutput& b,
                        const std::string& what) {
  EXPECT_EQ(a.transmitter_points, b.transmitter_points) << what;
  ASSERT_EQ(a.fused_cloud.size(), b.fused_cloud.size()) << what;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < a.fused_cloud.size(); ++i) {
    const pc::Point& p = a.fused_cloud[i];
    const pc::Point& q = b.fused_cloud[i];
    if (p.position.x != q.position.x || p.position.y != q.position.y ||
        p.position.z != q.position.z || p.reflectance != q.reflectance) {
      ++mismatched;
    }
  }
  EXPECT_EQ(mismatched, 0u) << what << ": fused clouds differ";
  ASSERT_EQ(a.fused.detections.size(), b.fused.detections.size()) << what;
  for (std::size_t i = 0; i < a.fused.detections.size(); ++i) {
    const spod::Detection& d = a.fused.detections[i];
    const spod::Detection& e = b.fused.detections[i];
    EXPECT_EQ(d.box.center.x, e.box.center.x) << what;
    EXPECT_EQ(d.box.center.y, e.box.center.y) << what;
    EXPECT_EQ(d.box.center.z, e.box.center.z) << what;
    EXPECT_EQ(d.box.length, e.box.length) << what;
    EXPECT_EQ(d.box.width, e.box.width) << what;
    EXPECT_EQ(d.box.height, e.box.height) << what;
    EXPECT_EQ(d.box.yaw, e.box.yaw) << what;
    EXPECT_EQ(d.score, e.score) << what;
    EXPECT_EQ(d.cls, e.cls) << what;
    EXPECT_EQ(d.num_points, e.num_points) << what;
  }
}

const NavMetadata kEgoNav{{0, 0, 0}, {0, 0, 0}, {0, 0, 1.9}};

TEST(SessionCacheTest, SteadyStateHitsAndIdenticalOutput) {
  CooperativeSession session(TestConfig());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(2, 10.0), 10.0).ok());
  pc::PointCloud local;
  local.Add({3, 0, 0}, 0.5f);
  const auto first = session.DetectCooperative(local, kEgoNav, 10.0);
  EXPECT_EQ(session.stats().recon_cache_misses, 2u);
  EXPECT_EQ(session.stats().recon_cache_hits, 0u);
  // Same packages, same nav: the second frame is served from the cache and
  // fuses to the exact same bytes.
  const auto second = session.DetectCooperative(local, kEgoNav, 10.1);
  EXPECT_EQ(session.stats().recon_cache_misses, 2u);
  EXPECT_EQ(session.stats().recon_cache_hits, 2u);
  ExpectBitIdentical(first, second, "steady state");
}

TEST(SessionCacheTest, ReplaceInvalidatesOnlyThatSender) {
  CooperativeSession session(TestConfig());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(2, 10.0), 10.0).ok());
  pc::PointCloud local;
  local.Add({3, 0, 0}, 0.5f);
  session.DetectCooperative(local, kEgoNav, 10.0);
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.5), 10.5).ok());
  const auto out = session.DetectCooperative(local, kEgoNav, 10.5);
  // Sender 1 was replaced (recomputed); sender 2 still hits.
  EXPECT_EQ(session.stats().recon_cache_misses, 3u);
  EXPECT_EQ(session.stats().recon_cache_hits, 1u);
  // Correctness, not just reuse: identical to a session that never cached.
  SessionConfig no_cache;
  no_cache.cache_reconstructions = false;
  CooperativeSession fresh(TestConfig(), no_cache);
  ASSERT_TRUE(fresh.ReceivePackage(TinyPackage(1, 10.5), 10.5).ok());
  ASSERT_TRUE(fresh.ReceivePackage(TinyPackage(2, 10.0), 10.5).ok());
  ExpectBitIdentical(out, fresh.DetectCooperative(local, kEgoNav, 10.5),
                     "after replace");
}

TEST(SessionCacheTest, EvictionAndExpiryDropCachedClouds) {
  SessionConfig sc;
  sc.max_cooperators = 1;
  CooperativeSession session(TestConfig(), sc);
  pc::PointCloud local;
  local.Add({3, 0, 0}, 0.5f);
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  session.DetectCooperative(local, kEgoNav, 10.0);
  EXPECT_EQ(session.stats().recon_cache_misses, 1u);
  // Sender 2 evicts sender 1; its cloud must be reconstructed, not reused.
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(2, 10.5), 10.5).ok());
  session.DetectCooperative(local, kEgoNav, 10.5);
  EXPECT_EQ(session.stats().recon_cache_misses, 2u);
  // Sender 1 returns after its old entry was invalidated: miss again.
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 11.0), 11.0).ok());
  session.DetectCooperative(local, kEgoNav, 11.0);
  EXPECT_EQ(session.stats().recon_cache_misses, 3u);
  EXPECT_EQ(session.stats().recon_cache_hits, 0u);
  // Expiry invalidates too: age the package out, re-receive, miss again.
  session.DetectCooperative(local, kEgoNav, 14.0);
  EXPECT_EQ(session.stats().packages_expired, 1u);
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 14.0), 14.0).ok());
  session.DetectCooperative(local, kEgoNav, 14.0);
  EXPECT_EQ(session.stats().recon_cache_misses, 4u);
}

TEST(SessionTest, NonFiniteHeaderRejectedAndLeavesNoState) {
  // Regression: every comparison with NaN is false, so a NaN timestamp
  // passed both age gates, never expired and pinned a cooperator slot.  Each
  // non-finite header field is rejected up front, on the package path and
  // the wire path (whose decoded payload would otherwise seed the cache).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<void (*)(ExchangePackage&, double)> corrupt = {
      [](ExchangePackage& p, double v) { p.timestamp_s = v; },
      [](ExchangePackage& p, double v) { p.nav.gps_position.x = v; },
      [](ExchangePackage& p, double v) { p.nav.gps_position.z = v; },
      [](ExchangePackage& p, double v) { p.nav.imu_attitude.yaw = v; },
      [](ExchangePackage& p, double v) { p.nav.imu_attitude.pitch = v; },
      [](ExchangePackage& p, double v) { p.nav.imu_attitude.roll = v; },
      [](ExchangePackage& p, double v) { p.nav.lidar_mount.y = v; },
  };
  CooperativeSession session(TestConfig());
  std::size_t rejected = 0;
  std::uint32_t sender = 1;
  for (const auto& set : corrupt) {
    for (const double bad : {nan, inf, -inf}) {
      ExchangePackage package = TinyPackage(sender, 10.0);
      set(package, bad);
      EXPECT_EQ(session.ReceivePackage(package, 10.0).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(session.ReceiveWire(net::SerializePackage(package), 10.0).code(),
                StatusCode::kInvalidArgument);
      rejected += 2;
      ++sender;
    }
  }
  EXPECT_EQ(session.stats().packages_rejected_invalid, rejected);
  EXPECT_EQ(session.stats().packages_accepted, 0u);
  EXPECT_EQ(session.stats().packages_corrupt, 0u);
  EXPECT_EQ(session.num_cooperators(), 0u);
  // Nothing held, so fusion neither hits nor fills the reconstruction cache
  // and matches a session that never saw the packages.
  pc::PointCloud local;
  local.Add({3, 0, 0}, 0.5f);
  const auto out = session.DetectCooperative(local, kEgoNav, 10.0);
  EXPECT_EQ(session.stats().recon_cache_hits, 0u);
  EXPECT_EQ(session.stats().recon_cache_misses, 0u);
  CooperativeSession fresh(TestConfig());
  ExpectBitIdentical(out, fresh.DetectCooperative(local, kEgoNav, 10.0),
                     "after rejected packages");
  // A rejected package from a sender with a held frame leaves that frame
  // (and its cache entry) in place.
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.5), 10.5).ok());
  session.DetectCooperative(local, kEgoNav, 10.5);
  ExchangePackage late = TinyPackage(1, 10.6);
  late.timestamp_s = nan;
  EXPECT_EQ(session.ReceiveWire(net::SerializePackage(late), 10.6).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Cooperators(), std::vector<std::uint32_t>{1});
  session.DetectCooperative(local, kEgoNav, 10.6);
  EXPECT_EQ(session.stats().recon_cache_hits, 1u);
  EXPECT_EQ(session.stats().recon_cache_misses, 1u);
}

TEST(SessionCacheTest, CorruptReplacementDoesNotServeStaleCloud) {
  // A healthy package is cached, then the sender replaces it with a frame
  // whose payload cannot decode.  The cached healthy cloud must not be
  // served for the corrupt replacement.
  CooperativeSession session(TestConfig());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  pc::PointCloud local;
  local.Add({3, 0, 0}, 0.5f);
  EXPECT_EQ(session.DetectCooperative(local, kEgoNav, 10.0).transmitter_points,
            2u);
  ExchangePackage bad = TinyPackage(1, 10.5);
  bad.payload = {0xff, 0xee, 0xdd};
  ASSERT_TRUE(session.ReceivePackage(bad, 10.5).ok());
  const auto out = session.DetectCooperative(local, kEgoNav, 10.5);
  EXPECT_EQ(out.transmitter_points, 0u);
  EXPECT_EQ(session.stats().packages_corrupt, 1u);
  EXPECT_EQ(session.num_cooperators(), 0u);
}

TEST(SessionCacheTest, NavChangeRealignsInsteadOfReusing) {
  CooperativeSession session(TestConfig());
  ASSERT_TRUE(session.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  pc::PointCloud local;
  local.Add({3, 0, 0}, 0.5f);
  session.DetectCooperative(local, kEgoNav, 10.0);
  // The receiver moved: the cached alignment is for the old pose, so this
  // frame recomputes (a miss) instead of serving a misaligned cloud.
  const NavMetadata moved{{1.0, -0.5, 0}, {0.1, 0, 0}, {0, 0, 1.9}};
  const auto out = session.DetectCooperative(local, moved, 10.1);
  EXPECT_EQ(session.stats().recon_cache_misses, 2u);
  EXPECT_EQ(session.stats().recon_cache_hits, 0u);
  SessionConfig no_cache;
  no_cache.cache_reconstructions = false;
  CooperativeSession fresh(TestConfig(), no_cache);
  ASSERT_TRUE(fresh.ReceivePackage(TinyPackage(1, 10.0), 10.0).ok());
  ExpectBitIdentical(out, fresh.DetectCooperative(local, moved, 10.1),
                     "after nav change");
}

TEST(SessionParallelTest, FusionBitIdenticalAcrossThreadsAndCache) {
  // The acceptance invariant of the parallel-fusion rework: DetectCooperative
  // output is bit-identical at 1 and N threads, with and without the
  // reconstruction cache.  Real scenario scans so reconstruction does real
  // work (decode, densify, Eq. 3) on every lane.
  const sim::Scenario scenario = [] {
    sim::Scenario sc = sim::MakeTjScenario(2);
    sc.lidar.azimuth_steps = 900;
    return sc;
  }();
  const sim::LidarSimulator lidar(scenario.lidar);
  Rng rng(scenario.seed);
  const geom::Vec3 mount{0, 0, scenario.lidar.sensor_height};
  std::vector<pc::PointCloud> clouds;
  std::vector<NavMetadata> navs;
  for (const auto& vp : scenario.viewpoints) {
    clouds.push_back(lidar.Scan(scenario.scene, vp.ToPose(), rng));
    navs.push_back(NavMetadata{vp.position, vp.attitude, mount});
  }

  auto run = [&](bool cache, int threads) {
    CooperConfig cfg = TestConfig();
    cfg.num_threads = threads;
    SessionConfig sc;
    sc.cache_reconstructions = cache;
    CooperativeSession session(cfg, sc);
    const CooperPipeline packer(TestConfig());
    for (std::size_t k = 1; k < clouds.size(); ++k) {
      EXPECT_TRUE(session
                      .ReceivePackage(
                          packer.MakePackage(static_cast<std::uint32_t>(k),
                                             10.0, RoiCategory::kFullFrame,
                                             navs[k], clouds[k]),
                          10.0)
                      .ok());
    }
    // Two frames: the first populates the cache, the second (the compared
    // one) exercises the hit path when the cache is on.
    session.DetectCooperative(clouds[0], navs[0], 10.0);
    return session.DetectCooperative(clouds[0], navs[0], 10.1);
  };

  const CooperOutput baseline = run(/*cache=*/false, /*threads=*/1);
  EXPECT_GT(baseline.transmitter_points, 0u);
  ExpectBitIdentical(baseline, run(false, 4), "uncached 4 threads");
  ExpectBitIdentical(baseline, run(true, 1), "cached 1 thread");
  ExpectBitIdentical(baseline, run(true, 4), "cached 4 threads");
}

TEST(SessionParallelTest, FeatureFusionBitIdenticalAcrossThreadsAndCache) {
  // Same invariant for the kVoxelFeatures path: codec decode, ego-grid
  // alignment, pseudo-point merge and maxout fusion must be bit-identical at
  // 1 and N threads, cache on and off.  Packages go through the real wire
  // (serialize + ReceiveWire) so the level byte is exercised end to end.
  const sim::Scenario scenario = [] {
    sim::Scenario sc = sim::MakeTjScenario(2);
    sc.lidar.azimuth_steps = 900;
    return sc;
  }();
  const sim::LidarSimulator lidar(scenario.lidar);
  Rng rng(scenario.seed);
  const geom::Vec3 mount{0, 0, scenario.lidar.sensor_height};
  std::vector<pc::PointCloud> clouds;
  std::vector<NavMetadata> navs;
  for (const auto& vp : scenario.viewpoints) {
    clouds.push_back(lidar.Scan(scenario.scene, vp.ToPose(), rng));
    navs.push_back(NavMetadata{vp.position, vp.attitude, mount});
  }

  auto run = [&](bool cache, int threads) {
    CooperConfig cfg = TestConfig();
    cfg.num_threads = threads;
    SessionConfig sc;
    sc.cache_reconstructions = cache;
    CooperativeSession session(cfg, sc);
    const CooperPipeline packer(TestConfig());
    for (std::size_t k = 1; k < clouds.size(); ++k) {
      const ExchangePackage package = packer.MakeLeveledPackage(
          static_cast<std::uint32_t>(k), 10.0, RoiCategory::kFrontSector,
          feat::ExchangeLevel::kVoxelFeatures, navs[k], clouds[k]);
      EXPECT_TRUE(
          session.ReceiveWire(net::SerializePackage(package), 10.0).ok());
    }
    session.DetectCooperative(clouds[0], navs[0], 10.0);
    return session.DetectCooperative(clouds[0], navs[0], 10.1);
  };

  const CooperOutput baseline = run(/*cache=*/false, /*threads=*/1);
  // Feature lanes contribute pseudo-points, so the fused cloud must have
  // grown beyond the local scan.
  EXPECT_GT(baseline.transmitter_points, 0u);
  EXPECT_GT(baseline.fused_cloud.size(), clouds[0].size());
  ExpectBitIdentical(baseline, run(false, 4), "feat uncached 4 threads");
  ExpectBitIdentical(baseline, run(true, 1), "feat cached 1 thread");
  ExpectBitIdentical(baseline, run(true, 4), "feat cached 4 threads");
}

// ---------------------------------------------------------------------------
// One fusion path: for a single cooperator, CooperPipeline::DetectCooperative
// and a CooperativeSession holding the same package must fuse to the same
// bytes.

struct DriftedPair {
  CooperConfig config;
  pc::PointCloud local, remote;
  NavMetadata local_nav, remote_nav;
};

// Two cars and a wall seen from two 64-beam vehicles; the cooperator reports
// GPS with 1.5 m drift, so ICP refinement has real work to do (the setup of
// IcpPipelineTest.RefinementRecoversLargeGpsDrift).
DriftedPair MakeDriftedPair() {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, 3, 0}, 10.0),
                  0.6);
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({18, -4, 0}, 170.0),
                  0.6);
  scene.AddObject(sim::ObjectClass::kWall,
                  sim::MakeWallBox({25, 5, 0}, 30.0, 14.0), 0.3);
  sim::LidarConfig lidar_cfg = sim::Hdl64Config();
  lidar_cfg.azimuth_steps = 720;
  Rng rng(29);
  const sim::LidarSimulator lidar(lidar_cfg);
  DriftedPair s;
  s.config = eval::MakeCooperConfig(lidar_cfg);
  s.local = lidar.Scan(scene, geom::Pose::Identity(), rng);
  s.remote = lidar.Scan(
      scene, geom::Pose::FromGpsImu({6, 2, 0}, {geom::DegToRad(15), 0, 0}),
      rng);
  const geom::Vec3 mount{0, 0, lidar_cfg.sensor_height};
  s.local_nav = NavMetadata{{0, 0, 0}, {0, 0, 0}, mount};
  s.remote_nav =
      NavMetadata{{6 + 1.1, 2 - 1.0, 0}, {geom::DegToRad(15), 0, 0}, mount};
  return s;
}

// Pipeline and session outputs for `package` at {1, 4} threads x {cache
// off, on}, ICP off and on, all bit-identical to the 1-thread pipeline.  The
// session fuses two frames, so a cache hit is compared too.
void ExpectSessionMatchesPipeline(const DriftedPair& s,
                                  const ExchangePackage& package) {
  for (const bool icp : {false, true}) {
    CooperConfig cfg = s.config;
    cfg.icp_refinement = icp;
    const std::string mode = icp ? "icp on" : "icp off";
    const auto expected =
        CooperPipeline(cfg).DetectCooperative(s.local, s.local_nav, package);
    ASSERT_TRUE(expected.ok()) << mode << ": " << expected.status().ToString();
    EXPECT_GT(expected->transmitter_points, 0u) << mode;
    for (const int threads : {1, 4}) {
      cfg.num_threads = threads;
      const std::string at = mode + ", " + std::to_string(threads) + " threads";
      const auto piped =
          CooperPipeline(cfg).DetectCooperative(s.local, s.local_nav, package);
      ASSERT_TRUE(piped.ok()) << at;
      ExpectBitIdentical(*expected, *piped, "pipeline, " + at);
      for (const bool cache : {false, true}) {
        SessionConfig sc;
        sc.cache_reconstructions = cache;
        CooperativeSession session(cfg, sc);
        ASSERT_TRUE(
            session.ReceiveWire(net::SerializePackage(package), 10.0).ok());
        for (const double now_s : {10.0, 10.1}) {
          ExpectBitIdentical(
              *expected, session.DetectCooperative(s.local, s.local_nav, now_s),
              "session, " + at + (cache ? ", cache on" : ", cache off"));
        }
      }
    }
  }
}

TEST(SessionParityTest, CloudPackageMatchesPipeline) {
  const DriftedPair s = MakeDriftedPair();
  const ExchangePackage package =
      CooperPipeline(s.config).MakePackage(2, 10.0, RoiCategory::kFullFrame,
                                           s.remote_nav, s.remote);
  ExpectSessionMatchesPipeline(s, package);
  // ICP must move the drifted cooperator's points, or the ICP-on half of the
  // check would only repeat the ICP-off half.
  CooperConfig refined = s.config;
  refined.icp_refinement = true;
  const auto with_icp =
      CooperPipeline(refined).DetectCooperative(s.local, s.local_nav, package);
  const auto without_icp =
      CooperPipeline(s.config).DetectCooperative(s.local, s.local_nav, package);
  ASSERT_TRUE(with_icp.ok() && without_icp.ok());
  const std::size_t last = with_icp->fused_cloud.size() - 1;
  EXPECT_NE(with_icp->fused_cloud[last].position.x,
            without_icp->fused_cloud[last].position.x);
}

TEST(SessionParityTest, FeaturePackageMatchesPipeline) {
  // The pipeline fuses a feature-level package through the same lane as the
  // session: its pseudo-points, never ICP-refined.
  const DriftedPair s = MakeDriftedPair();
  const ExchangePackage package = CooperPipeline(s.config).MakeLeveledPackage(
      2, 10.0, RoiCategory::kFrontSector, feat::ExchangeLevel::kVoxelFeatures,
      s.remote_nav, s.remote);
  ExpectSessionMatchesPipeline(s, package);
}

TEST(SessionTest, UnknownLevelPackageCountedAndRejected) {
  // An intact package with an unknown level byte is version skew, not
  // corruption: rejected cleanly, counted in its own stat, and the sender
  // gains no slot.
  CooperativeSession session(TestConfig());
  auto wire = net::SerializePackage(TinyPackage(1, 10.0));
  wire[19] = 7;  // level byte: no such rung
  wire.resize(wire.size() - 4);
  const std::uint32_t crc = net::Crc32(wire.data(), wire.size());
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  const Status s = session.ReceiveWire(wire, 10.0);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(session.stats().packages_rejected_level, 1u);
  EXPECT_EQ(session.stats().packages_corrupt, 0u);
  EXPECT_EQ(session.num_cooperators(), 0u);
}

TEST(SessionWireFaultTest, ChannelDuplicatesSplitFromRetransmits) {
  // Regression for the conflated duplicate accounting: a channel that
  // duplicates every fragment used to inflate `frames_retransmitted` even
  // though the sender never retransmitted anything.  Duplicates of fragments
  // still held in a partial are channel noise (`frames_duplicate`); only a
  // fragment of an already-delivered package counts as a retransmit.
  CooperativeSession session(TestConfig());
  pc::PointCloud cloud;
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    cloud.Add({5 + rng.Uniform(), rng.Uniform(), rng.Uniform()}, 0.5f);
  }
  const pc::CloudCodec codec;
  const ExchangePackage package =
      BuildPackage(1, 10.0, RoiCategory::kFullFrame, kEgoNav, cloud, codec);
  const std::vector<std::uint8_t> wire = net::SerializePackage(package);
  const auto frames = net::FragmentPackage(wire, /*sender_id=*/1,
                                           /*package_seq=*/0,
                                           /*mtu_bytes=*/160);
  ASSERT_TRUE(frames.ok());
  ASSERT_GE(frames->size(), 2u);

  net::FaultProfile profile;
  profile.duplicate_prob = 1.0;  // every fragment arrives twice
  net::FaultInjector injector(profile, /*seed=*/7);
  for (const auto& frame : *frames) {
    for (const auto& delivery : injector.Apply(frame)) {
      (void)session.ReceiveFrame(delivery.bytes, 10.0);
    }
  }
  ASSERT_EQ(injector.stats().frames_duplicated, frames->size());
  EXPECT_EQ(session.stats().packages_accepted, 1u);
  // All but the final fragment's copy duplicate a still-partial package; the
  // final copy lands after delivery, inside the retransmission window.
  EXPECT_EQ(session.stats().frames_duplicate, frames->size() - 1);
  EXPECT_EQ(session.stats().frames_retransmitted, 1u);
}

}  // namespace
}  // namespace cooper::core
