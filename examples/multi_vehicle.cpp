// Multi-vehicle cooperative perception with authenticated packages.
//
// Five connected vehicles in a congested parking lot run a full cooperation
// round: every vehicle broadcasts a sealed (SipHash-MAC'd) exchange package
// over a lossy DSRC channel; vehicle 1 verifies, unpacks and fuses whatever
// arrives intact, then compares its single-shot view against the fleet view.
// A sixth, unregistered "vehicle" injects a forged package to show the
// authentication path rejecting it.
#include <cstdio>

#include "core/session.h"
#include "eval/experiment.h"
#include "net/auth.h"
#include "net/dsrc.h"
#include "net/serialize.h"
#include "obs/trace.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

using namespace cooper;

namespace {

net::MacKey KeyFor(std::uint32_t vehicle) {
  net::MacKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(vehicle * 31 + i);
  }
  return key;
}

}  // namespace

int main() {
  const auto scenario = sim::MakeTjScenario(2);
  const sim::LidarSimulator lidar(scenario.lidar);
  Rng rng(1234);

  // Scan every viewpoint.
  std::vector<pc::PointCloud> clouds;
  std::vector<core::NavMetadata> navs;
  const geom::Vec3 mount{0, 0, scenario.lidar.sensor_height};
  for (const auto& vp : scenario.viewpoints) {
    clouds.push_back(lidar.Scan(scenario.scene, vp.ToPose(), rng));
    navs.push_back(core::NavMetadata{vp.position, vp.attitude, mount});
  }
  std::printf("fleet of %zu vehicles, %zu ground-truth cars in the lot\n\n",
              scenario.viewpoints.size(), scenario.scene.Targets().size());

  core::CooperativeSession session(eval::MakeCooperConfig(scenario.lidar));
  net::PackageAuthenticator auth;
  net::DsrcChannel channel(net::DsrcConfig{6.0, 2.0, /*loss=*/0.1, 0.9});

  // Vehicle 1 knows keys for vehicles 2..5 (vehicular PKI stand-in).
  for (std::uint32_t v = 2; v <= 5; ++v) auth.RegisterSender(v, KeyFor(v));

  // Each cooperator broadcasts one sealed package.
  for (std::uint32_t v = 2; v <= 5; ++v) {
    const auto package = session.pipeline().MakePackage(
        v, /*timestamp_s=*/1.0, core::RoiCategory::kFullFrame, navs[v - 1],
        clouds[v - 1]);
    auto sealed = net::Seal(KeyFor(v), net::SerializePackage(package));
    const auto report = channel.Transmit(sealed.wire_bytes.size(), rng);
    if (!report.delivered) {
      std::printf("vehicle %u: package lost on the channel\n", v);
      continue;
    }
    if (const auto s = auth.Verify(v, 1.0, sealed); !s.ok()) {
      std::printf("vehicle %u: rejected (%s)\n", v, s.ToString().c_str());
      continue;
    }
    const auto parsed = net::DeserializePackage(sealed.wire_bytes);
    if (!parsed.ok()) continue;
    if (session.ReceivePackage(*parsed, 1.0).ok()) {
      std::printf("vehicle %u: accepted, %.2f Mbit, latency %.1f ms\n", v,
                  sealed.wire_bytes.size() * 8.0 / 1e6, report.latency_ms);
    }
  }

  // An attacker forges a package claiming to be vehicle 3.
  {
    auto forged = session.pipeline().MakePackage(
        3, 2.0, core::RoiCategory::kFullFrame, navs[0], clouds[0]);
    auto sealed = net::Seal(KeyFor(99), net::SerializePackage(forged));
    const auto s = auth.Verify(3, 2.0, sealed);
    std::printf("forged package from 'vehicle 3': %s\n", s.ToString().c_str());
  }

  // Perception with everything that survived.
  const auto single = session.DetectSingleShot(clouds[0]);
  const auto fleet = session.DetectCooperative(clouds[0], navs[0], 1.2);
  auto confident = [](const spod::SpodResult& r) {
    int n = 0;
    for (const auto& d : r.detections) n += d.score >= eval::kScoreThreshold;
    return n;
  };
  std::printf("\ncooperators fused: %zu; fused cloud %zu points\n",
              session.num_cooperators(), fleet.fused_cloud.size());
  std::printf("single shot detections:  %d\n", confident(single));
  std::printf("fleet view detections:   %d\n", confident(fleet.fused));

  // The next frame arrives before anyone rebroadcast: every cooperator's
  // reconstruction is served from the session cache, so fusion cost drops to
  // a merge while the output stays bit-identical.  Stage times come from the
  // pipeline's obs spans.
  obs::SetEnabled(true);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  (void)session.DetectCooperative(clouds[0], navs[0], 1.3);
  std::printf("\nnext frame (unchanged cooperators): reconstruct %.1f ms | "
              "merge %.1f ms | detect %.1f ms\n",
              tracer.TotalUs("session.reconstruct") / 1e3,
              tracer.TotalUs("session.merge") / 1e3,
              tracer.TotalUs("spod.detect") / 1e3);
  std::printf("reconstruction cache: %zu hits, %zu misses\n",
              session.stats().recon_cache_hits,
              session.stats().recon_cache_misses);
  return 0;
}
