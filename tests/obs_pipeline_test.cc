// End-to-end observability test: drives the full two-vehicle exchange
// (lidar scan -> ROI/codec packaging -> fragmentation -> session receive ->
// reassembly -> reconstruction -> SPOD on the fused cloud) with the
// `CooperConfig::observability` knob on, then schema-checks the exported
// Chrome trace (span presence, nesting, ParallelFor worker attribution) and
// verifies the counter snapshot mirrors the pre-existing stats structs and
// is bit-identical across same-seed reruns.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.h"
#include "eval/experiment.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

namespace cooper::core {
namespace {

CooperConfig TestConfig() {
  sim::LidarConfig lidar = sim::Vlp16Config();
  lidar.azimuth_steps = 900;  // keep the scans fast
  CooperConfig config = eval::MakeCooperConfig(lidar);
  config.observability = true;
  // Explicit 2 (not 0): the global pool guarantees two participants even on
  // single-core hosts, so ParallelFor attribution is always exercised.
  config.num_threads = 2;
  return config;
}

struct FlowResult {
  SessionStats session_stats;
  std::size_t detections = 0;
  std::size_t transmitter_points = 0;
};

// One complete exchange between two T&J viewpoints, entirely over the wire
// path (fragment -> ReceiveFrame -> reassemble).
FlowResult RunTwoVehicleFlow() {
  const CooperConfig config = TestConfig();
  const sim::Scenario scenario = [] {
    sim::Scenario sc = sim::MakeTjScenario(2);
    sc.lidar.azimuth_steps = 900;
    // Two ray-casting threads: the scans are the flow's fan-out stage, so
    // they carry the ParallelFor attribution checked below.
    sc.lidar.num_threads = 2;
    return sc;
  }();
  const CooperPipeline pipeline(config);  // flips obs on (observability=true)
  CooperativeSession session(config);

  const sim::LidarSimulator lidar(scenario.lidar);
  Rng rng(scenario.seed);
  const geom::Vec3 mount{0, 0, scenario.lidar.sensor_height};
  const pc::PointCloud local_cloud =
      lidar.Scan(scenario.scene, scenario.viewpoints[0].ToPose(), rng);
  const pc::PointCloud remote_cloud =
      lidar.Scan(scenario.scene, scenario.viewpoints[1].ToPose(), rng);
  const NavMetadata local_nav{scenario.viewpoints[0].position,
                              scenario.viewpoints[0].attitude, mount};
  const NavMetadata remote_nav{scenario.viewpoints[1].position,
                               scenario.viewpoints[1].attitude, mount};

  const ExchangePackage package = pipeline.MakePackage(
      2, /*timestamp_s=*/10.0, RoiCategory::kFullFrame, remote_nav,
      remote_cloud);
  const std::vector<std::uint8_t> wire = net::SerializePackage(package);
  const auto frames = net::FragmentPackage(wire, /*sender_id=*/2,
                                           /*package_seq=*/0,
                                           config.transport.mtu_bytes);
  EXPECT_TRUE(frames.ok());
  for (const auto& frame : *frames) {
    EXPECT_TRUE(session.ReceiveFrame(frame, /*now_s=*/10.01).ok());
  }

  const CooperOutput out =
      session.DetectCooperative(local_cloud, local_nav, /*now_s=*/10.05);
  FlowResult r;
  r.session_stats = session.stats();
  r.detections = out.fused.detections.size();
  r.transmitter_points = out.transmitter_points;
  return r;
}

const obs::json::Value* FindEvent(const obs::json::Value& events,
                                  const std::string& name) {
  for (const auto& e : events.array) {
    const auto* n = e.Find("name");
    const auto* ph = e.Find("ph");
    if (n != nullptr && ph != nullptr && ph->str == "X" && n->str == name) {
      return &e;
    }
  }
  return nullptr;
}

// `inner` lies within `outer` on the same thread lane.
void ExpectNested(const obs::json::Value* outer, const obs::json::Value* inner,
                  const std::string& what) {
  ASSERT_NE(outer, nullptr) << what;
  ASSERT_NE(inner, nullptr) << what;
  EXPECT_EQ(outer->Find("tid")->number, inner->Find("tid")->number) << what;
  EXPECT_LE(outer->Find("ts")->number, inner->Find("ts")->number) << what;
  EXPECT_GE(outer->Find("ts")->number + outer->Find("dur")->number,
            inner->Find("ts")->number + inner->Find("dur")->number)
      << what;
}

TEST(ObsPipelineTest, TwoVehicleTraceIsValidAndNested) {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().ResetValues();
  obs::Tracer::Global().Clear();

  const FlowResult flow = RunTwoVehicleFlow();
  EXPECT_EQ(flow.session_stats.packages_accepted, 1u);
  EXPECT_GT(flow.transmitter_points, 0u);

  std::ostringstream out;
  obs::Tracer::Global().WriteChromeTrace(out);
  const auto doc = obs::json::Parse(out.str());
  ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->Find("displayTimeUnit"), nullptr);
  EXPECT_EQ(doc->Find("displayTimeUnit")->str, "ms");
  const auto* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_EQ(obs::Tracer::Global().dropped_events(), 0u);

  // Every pipeline layer shows up in the trace.
  for (const char* name :
       {"lidar.scan", "cooper.make_package", "codec.encode",
        "transport.fragment", "session.receive_frame", "session.receive_wire",
        "codec.decode", "session.detect_cooperative", "cooper.reconstruct",
        "spod.detect", "spod.preprocess", "spod.cluster", "spod.proposals"}) {
    EXPECT_NE(FindEvent(*events, name), nullptr)
        << "missing span: " << name;
  }

  // Schema: complete events carry the Chrome trace-event fields.
  for (const auto& e : events->array) {
    const auto* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str != "X") continue;
    for (const char* key : {"name", "cat", "ts", "dur", "pid", "tid"}) {
      ASSERT_NE(e.Find(key), nullptr) << "X event missing " << key;
    }
    EXPECT_GE(e.Find("dur")->number, 0.0);
    EXPECT_EQ(e.Find("pid")->number, 1.0);
  }

  // Nesting across layers: encode inside packaging, reconstruction and
  // detection inside the session's fused pass, decode inside the wire
  // receive.
  ExpectNested(FindEvent(*events, "cooper.make_package"),
               FindEvent(*events, "codec.encode"), "encode in make_package");
  ExpectNested(FindEvent(*events, "session.receive_wire"),
               FindEvent(*events, "codec.decode"), "decode in receive_wire");
  ExpectNested(FindEvent(*events, "session.detect_cooperative"),
               FindEvent(*events, "cooper.reconstruct"),
               "reconstruct in detect_cooperative");
  ExpectNested(FindEvent(*events, "session.detect_cooperative"),
               FindEvent(*events, "spod.detect"),
               "spod.detect in detect_cooperative");

  // ParallelFor attribution: parallel stages re-open the submitting span on
  // participant lanes (category "parallel").  The two-thread lidar scans
  // fan out.
  std::size_t parallel_events = 0;
  std::set<std::string> parallel_names;
  for (const auto& e : events->array) {
    const auto* cat = e.Find("cat");
    if (cat == nullptr || cat->str != "parallel") continue;
    ++parallel_events;
    parallel_names.insert(e.Find("name")->str);
  }
  EXPECT_GE(parallel_events, 1u);
  // The tag is the innermost span open at dispatch, so parallel events are
  // named after pipeline spans, never invented ones.
  for (const auto& name : parallel_names) {
    EXPECT_NE(FindEvent(*events, name), nullptr)
        << "parallel tag without a matching span: " << name;
  }

  // Counters mirror the stats structs the pipeline always kept.
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snapshot.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  EXPECT_EQ(counter("session.packages_accepted"),
            flow.session_stats.packages_accepted);
  EXPECT_EQ(counter("reassembly.packages_completed"), 1u);
  EXPECT_GE(counter("reassembly.frames_accepted"), 1u);
  EXPECT_GT(counter("lidar.points"), 0u);
  EXPECT_GT(counter("codec.bytes_encoded"), 0u);
  // The payload decodes exactly once: the ReceiveWire validation decode
  // seeds the reconstruction cache, so fusion never decodes it again.
  EXPECT_EQ(counter("codec.points_decoded"), counter("codec.points_encoded"));
  EXPECT_GT(counter("spod.input_points"), 0u);
  // Stage times are spans, not histograms: the session's reconstruct and
  // merge stages sit inside its fused pass (the detector's stages are
  // checked in spod_test).
  for (const auto& h : snapshot.histograms) {
    EXPECT_NE(h.name.rfind("stage.", 0), 0u) << h.name;
  }
  for (const char* stage : {"session.reconstruct", "session.merge"}) {
    ExpectNested(FindEvent(*events, "session.detect_cooperative"),
                 FindEvent(*events, stage), stage);
    EXPECT_GT(obs::Tracer::Global().TotalUs(stage), 0.0) << stage;
  }

  obs::SetEnabled(false);
}

TEST(ObsPipelineTest, SameSeedRerunsYieldIdenticalCounters) {
  obs::SetEnabled(true);

  obs::MetricsRegistry::Global().ResetValues();
  const FlowResult first_flow = RunTwoVehicleFlow();
  const auto first = obs::MetricsRegistry::Global().Snapshot();

  obs::MetricsRegistry::Global().ResetValues();
  const FlowResult second_flow = RunTwoVehicleFlow();
  const auto second = obs::MetricsRegistry::Global().Snapshot();

  // Counter snapshots are bit-identical across same-seed reruns (trace
  // timestamps and stage-duration histograms are wall-clock and exempt).
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first_flow.detections, second_flow.detections);
  EXPECT_EQ(first_flow.transmitter_points, second_flow.transmitter_points);

  obs::SetEnabled(false);
}

}  // namespace
}  // namespace cooper::core
