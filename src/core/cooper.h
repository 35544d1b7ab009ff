// The Cooper cooperative-perception pipeline (paper §II, §III).
//
// Receiver side: unpack a cooperator's exchange package, reconstruct its
// cloud in the local frame via the GPS/IMU pose difference (Eq. 1-3), merge
// with the local scan (Eq. 2) and run the shared SPOD detector on the fused
// cloud.  That fusion is written once: `FuseLane` and `MergeAndDetect`,
// called by `DetectCooperative` for one package and by `CooperativeSession`
// for N.  The class also exposes the single-shot path so callers can compare
// "single shot" vs "Cooper" exactly as the evaluation does.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/exchange.h"
#include "core/roi.h"
#include "net/transport.h"
#include "pointcloud/icp.h"
#include "spod/detector.h"

namespace cooper::core {

struct CooperConfig {
  spod::SpodConfig detector;
  spod::SensorResolution sensor;
  pc::CodecConfig codec;
  // Quantization width for feature-level payloads (kVoxelFeatures): 8-bit
  // default (smallest wire size), 16-bit for bit-exact round-trip studies.
  feat::FeatureCodecConfig feature_codec;
  // Sender-side spatial max-pool factor applied to the VFE map before
  // encoding a kVoxelFeatures payload (F-Cooper's coarse feature maps).
  // Factor 2 merges 2x2x2 fine voxels per coarse site, which is what gets
  // the feature rung under the DSRC budget (>=5x smaller than the ROI-cloud
  // codec on the golden scenes); <=1 ships the fine map.  The receiver's
  // AlignToGrid re-quantizes site centers, so no decoder-side knob exists.
  int feature_pool = 2;
  RoiConfig roi;
  // Fragmentation/retransmission transport knobs (MTU, retry budget,
  // backoff, reassembly timeout) — used by the sender-side `net::Transport`
  // and by `CooperativeSession`'s receive-side reassembler.
  net::TransportConfig transport;
  // When true, refine the GPS/IMU-derived Eq. 3 alignment with planar ICP on
  // the above-ground structure before merging — recovers fusion quality when
  // GPS drift exceeds the Fig. 10 bound (library extension, see DESIGN.md).
  bool icp_refinement = false;
  pc::IcpConfig icp;
  std::uint64_t detector_weight_seed = 42;
  // Threads for every parallel hot path in the pipeline (<= 0: hardware
  // concurrency, 1: serial).  The constructor copies this knob into the
  // detector and ICP configs, so it is the single switch callers tune.
  // Output is bit-identical for every value — see DESIGN.md.
  int num_threads = 1;
  // Master switch for the obs subsystem (metrics + tracing).  Constructing a
  // pipeline with this set flips the process-wide `obs::Enabled()` flag on;
  // it stays on (sticky) so overlapping pipelines cannot strobe it.  Off by
  // default: disabled cost is one relaxed atomic load per instrumentation
  // site.  See DESIGN.md "Observability".
  bool observability = false;
  // SIMD dispatch for the kernel layer (common::simd): "auto" picks the best
  // tier the CPU supports; "scalar" | "sse4.2" | "avx2" | "neon" force one.
  // Process-wide (the kernel tables are global), applied at pipeline
  // construction.  Forcing an unavailable tier clamps to the best available
  // with a warning; an unparseable value is rejected by the constructor.
  // Every tier produces bit-identical detections — see DESIGN.md §11.
  std::string simd = "auto";
};

/// Output of one cooperative-perception step.
struct CooperOutput {
  spod::SpodResult fused;              // detection on the merged cloud
  pc::PointCloud fused_cloud;          // receiver frame
  std::size_t transmitter_points = 0;  // points contributed by the package
};

class CooperPipeline {
 public:
  explicit CooperPipeline(const CooperConfig& config);

  /// Sender side: build the package a vehicle would broadcast (ROI-cloud
  /// level, the paper's exchange mode).  Non-finite scan points are dropped
  /// first and counted as `cooper.points_dropped_invalid`.
  ExchangePackage MakePackage(std::uint32_t sender_id, double timestamp_s,
                              RoiCategory roi, const NavMetadata& nav,
                              const pc::PointCloud& local_cloud) const;

  /// Sender side with the bandwidth ladder explicit: kRawCloud ships the
  /// whole scan, kRoiCloud the ROI-filtered scan (== MakePackage), and
  /// kVoxelFeatures the quantized VFE feature map of the ROI-filtered scan
  /// (the F-Cooper tap; see feat/).  The exchange planner picks `level` per
  /// cooperator from the DSRC budget (feat::PlanExchange).  Every level
  /// drops non-finite scan points first, as MakePackage does.
  ExchangePackage MakeLeveledPackage(std::uint32_t sender_id,
                                     double timestamp_s, RoiCategory roi,
                                     feat::ExchangeLevel level,
                                     const NavMetadata& nav,
                                     const pc::PointCloud& local_cloud) const;

  /// Single-shot perception on the local cloud only.
  spod::SpodResult DetectSingleShot(const pc::PointCloud& local_cloud) const;

  /// Cooperative perception with one package of any exchange level: its
  /// FuseLane, then MergeAndDetect.  Fails with DATA_LOSS if the package
  /// payload is corrupt.
  Result<CooperOutput> DetectCooperative(const pc::PointCloud& local_cloud,
                                         const NavMetadata& local_nav,
                                         const ExchangePackage& package) const;

  /// One cooperator's lane: the package's points in the receiver's sensor
  /// frame.  Cloud levels: ReconstructRemoteCloud, then RefineAlignment
  /// against `icp_target` (spanned `cooper.icp` when refinement is on).
  /// Feature level: the decoded map aligned into the detector grid (nav-only
  /// Eq. 3; ICP needs raw returns), one pseudo-point per site.  `scratch` as
  /// in RefineAlignment.  Fails with DATA_LOSS on a corrupt payload.
  Result<pc::PointCloud> FuseLane(const NavMetadata& local_nav,
                                  const ExchangePackage& package,
                                  const pc::PointCloud& icp_target,
                                  pc::IcpScratch* scratch) const;

  /// Eq. 2 and detection: the densified local cloud, then each lane cloud
  /// in the given order (spanned `merge_span`), then one SPOD pass.  Lane
  /// order is point order, so callers fix it (the session: by sender id).
  CooperOutput MergeAndDetect(const pc::PointCloud& local_cloud,
                              const std::vector<const pc::PointCloud*>& lanes,
                              std::string_view merge_span) const;

  /// Reconstruction only (Eq. 1-3): the package's cloud expressed in the
  /// receiver's sensor frame.
  Result<pc::PointCloud> ReconstructRemoteCloud(
      const NavMetadata& local_nav, const ExchangePackage& package) const;

  /// Eq. 3 transform taking `remote_nav`'s sensor frame into `local_nav`'s:
  /// the factored-out alignment step of reconstruction, so callers that
  /// cache a decoded+densified sender-frame cloud can re-express it under a
  /// new receiver pose without decoding again.
  static geom::Pose ReceiverFromSender(const NavMetadata& local_nav,
                                       const NavMetadata& remote_nav);

  /// The ICP registration target derived from the receiver's cloud: its
  /// above-ground structure (flat ground constrains neither x/y translation
  /// nor yaw, which are exactly the drifting axes).  Empty when
  /// `icp_refinement` is off — computing it would be wasted work.
  pc::PointCloud IcpTarget(const pc::PointCloud& local_cloud) const;

  /// ICP half of reconstruction: registers `remote` (already in the
  /// receiver's frame) against `icp_target` and applies the correction when
  /// it improves the fit.  No-op when refinement is off or either cloud is
  /// empty.  `scratch` may be null; concurrent callers must pass distinct
  /// scratches (the session hands out one `IcpScratchPool` lane per
  /// reconstruction worker).
  pc::PointCloud RefineAlignment(pc::PointCloud remote,
                                 const pc::PointCloud& icp_target,
                                 pc::IcpScratch* scratch) const;

  const CooperConfig& config() const { return config_; }
  const spod::SpodDetector& detector() const { return detector_; }

 private:
  CooperConfig config_;
  spod::SpodDetector detector_;
  pc::CloudCodec codec_;
  // ICP gather working set, reused across DetectCooperative calls (the
  // detector keeps its own scratch).  Mutable: detection stays const for
  // callers, but one pipeline instance must not detect concurrently.
  mutable pc::IcpScratch icp_scratch_;
};

}  // namespace cooper::core
