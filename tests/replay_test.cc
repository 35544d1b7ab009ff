// Record/replay trace format, golden replay and differential conformance.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "replay/conformance.h"
#include "replay/golden.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "replay/trace.h"

namespace cooper::replay {
namespace {

#ifndef COOPER_TEST_DATA_DIR
#define COOPER_TEST_DATA_DIR "tests/data"
#endif

TraceConfig SmallConfig() {
  TraceConfig config;
  config.name = "unit";
  config.lidar.beams = 16;
  config.lidar.azimuth_steps = 128;
  config.scan_seed = 7;
  return config;
}

pc::PointCloud SmallCloud() {
  pc::PointCloud cloud;
  cloud.Add({1.0, 2.0, 3.0}, 0.5f);
  cloud.Add({-4.5, 0.25, 1.75}, 0.125f);
  cloud.Add({10.0, -10.0, 0.0}, 1.0f);
  return cloud;
}

// --- Format round trips ---

TEST(TraceFormat, HeaderRoundTrip) {
  TraceWriter writer;
  TraceReader reader(writer.bytes());
  ASSERT_TRUE(reader.ReadHeader().ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(TraceFormat, ConfigRoundTrip) {
  TraceConfig config = SmallConfig();
  config.max_cooperators = 3;
  config.cache_reconstructions = false;
  config.num_threads = 4;
  config.faults.drop_prob = 0.25;
  config.fault_seed = 99;

  TraceWriter writer;
  writer.AppendConfig(config);
  TraceReader reader(writer.bytes());
  ASSERT_TRUE(reader.ReadHeader().ok());
  auto record = reader.Next();
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->tag, RecordTag::kConfig);
  auto decoded = DecodeConfig(record->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, "unit");
  EXPECT_EQ(decoded->lidar.beams, 16);
  EXPECT_EQ(decoded->lidar.azimuth_steps, 128);
  EXPECT_EQ(decoded->max_cooperators, 3u);
  EXPECT_FALSE(decoded->cache_reconstructions);
  EXPECT_EQ(decoded->num_threads, 4);
  EXPECT_DOUBLE_EQ(decoded->faults.drop_prob, 0.25);
  EXPECT_EQ(decoded->fault_seed, 99u);
  EXPECT_EQ(decoded->scan_seed, 7u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(TraceFormat, ScanRoundTripIsBitExact) {
  const pc::PointCloud cloud = SmallCloud();
  TraceWriter writer;
  writer.AppendScan(5, cloud);
  TraceReader reader(writer.bytes());
  ASSERT_TRUE(reader.ReadHeader().ok());
  auto record = reader.Next();
  ASSERT_TRUE(record.ok());
  auto decoded = DecodeScan(record->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->first, 5u);
  ASSERT_EQ(decoded->second.size(), cloud.size());
  EXPECT_EQ(DigestCloud(decoded->second), DigestCloud(cloud));
}

TEST(TraceFormat, WireAndFaultAndDigestRoundTrip) {
  TraceWriter writer;
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 255, 0, 42};
  writer.AppendWireFrame(1.5, bytes);
  writer.AppendWirePackage(2.5, bytes);
  FaultEventRecord fe;
  fe.frame_index = 9;
  fe.flags = kFaultDuplicated | kFaultReordered;
  fe.deliveries = 2;
  fe.extra_delay_ms[1] = 12.5;
  writer.AppendFaultEvent(fe);
  StepDigest sd;
  sd.timestamp_s = 10.0;
  sd.num_detections = 2;
  sd.detections_digest = 0xdeadbeefcafef00dull;
  sd.fused_points = 1234;
  sd.fused_digest = 42;
  sd.num_voxels = 77;
  sd.transmitter_points = 56;
  writer.AppendStepDigest(sd);
  EndRecord end;
  end.step_count = 1;
  end.combined_digest = 0xabcdull;
  writer.AppendEnd(end);

  TraceReader reader(writer.bytes());
  ASSERT_TRUE(reader.ReadHeader().ok());

  auto frame = reader.Next();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->tag, RecordTag::kWireFrame);
  auto wire = DecodeWireBytes(frame->payload);
  ASSERT_TRUE(wire.ok());
  EXPECT_DOUBLE_EQ(wire->first, 1.5);
  EXPECT_EQ(wire->second, bytes);

  auto package = reader.Next();
  ASSERT_TRUE(package.ok());
  EXPECT_EQ(package->tag, RecordTag::kWirePackage);

  auto fault = reader.Next();
  ASSERT_TRUE(fault.ok());
  auto fe2 = DecodeFaultEvent(fault->payload);
  ASSERT_TRUE(fe2.ok());
  EXPECT_EQ(fe2->frame_index, 9u);
  EXPECT_EQ(fe2->flags, kFaultDuplicated | kFaultReordered);
  EXPECT_EQ(fe2->deliveries, 2u);
  EXPECT_DOUBLE_EQ(fe2->extra_delay_ms[1], 12.5);

  auto digest = reader.Next();
  ASSERT_TRUE(digest.ok());
  auto sd2 = DecodeStepDigest(digest->payload);
  ASSERT_TRUE(sd2.ok());
  EXPECT_EQ(sd2->detections_digest, sd.detections_digest);
  EXPECT_EQ(sd2->fused_points, sd.fused_points);
  EXPECT_EQ(sd2->num_voxels, sd.num_voxels);

  auto endr = reader.Next();
  ASSERT_TRUE(endr.ok());
  auto end2 = DecodeEnd(endr->payload);
  ASSERT_TRUE(end2.ok());
  EXPECT_EQ(end2->step_count, 1u);
  EXPECT_EQ(end2->combined_digest, 0xabcdull);
  EXPECT_TRUE(reader.AtEnd());
}

// --- Defensive decoding ---

TEST(TraceFormat, RejectsBadMagicVersionAndFlags) {
  TraceWriter writer;
  std::vector<std::uint8_t> image = writer.bytes();
  {
    auto bad = image;
    bad[0] ^= 0xff;
    TraceReader reader(bad);
    EXPECT_EQ(reader.ReadHeader().code(), StatusCode::kDataLoss);
  }
  {
    auto bad = image;
    bad[4] = 0xfe;  // version
    TraceReader reader(bad);
    EXPECT_EQ(reader.ReadHeader().code(), StatusCode::kDataLoss);
  }
  {
    auto bad = image;
    bad[6] = 1;  // flags
    TraceReader reader(bad);
    EXPECT_EQ(reader.ReadHeader().code(), StatusCode::kDataLoss);
  }
  {
    std::vector<std::uint8_t> tiny(image.begin(), image.begin() + 3);
    TraceReader reader(tiny);
    EXPECT_EQ(reader.ReadHeader().code(), StatusCode::kDataLoss);
  }
}

TEST(TraceFormat, RejectsCorruptRecords) {
  TraceWriter writer;
  writer.AppendWireFrame(1.0, {10, 20, 30});
  const std::vector<std::uint8_t>& good = writer.bytes();

  {  // flipped payload byte -> CRC mismatch
    auto bad = good;
    bad[kTraceHeaderBytes + 6] ^= 0x01;
    TraceReader reader(bad);
    ASSERT_TRUE(reader.ReadHeader().ok());
    EXPECT_EQ(reader.Next().status().code(), StatusCode::kDataLoss);
  }
  {  // unknown tag
    auto bad = good;
    bad[kTraceHeaderBytes] = 0x7f;
    TraceReader reader(bad);
    ASSERT_TRUE(reader.ReadHeader().ok());
    EXPECT_EQ(reader.Next().status().code(), StatusCode::kDataLoss);
  }
  {  // truncated mid-record
    std::vector<std::uint8_t> bad(good.begin(), good.end() - 5);
    TraceReader reader(bad);
    ASSERT_TRUE(reader.ReadHeader().ok());
    EXPECT_EQ(reader.Next().status().code(), StatusCode::kDataLoss);
  }
  {  // length field inflated past the buffer
    auto bad = good;
    bad[kTraceHeaderBytes + 1] = 0xff;
    bad[kTraceHeaderBytes + 2] = 0xff;
    TraceReader reader(bad);
    ASSERT_TRUE(reader.ReadHeader().ok());
    EXPECT_EQ(reader.Next().status().code(), StatusCode::kDataLoss);
  }
}

TEST(TraceFormat, ScanCountMustAgreeWithPayload) {
  TraceWriter writer;
  writer.AppendScan(0, SmallCloud());
  TraceReader reader(writer.bytes());
  ASSERT_TRUE(reader.ReadHeader().ok());
  auto record = reader.Next();
  ASSERT_TRUE(record.ok());
  // Inflate the claimed point count: the decoder must refuse before
  // allocating, not over-read.
  record->payload[4] = 0xff;
  record->payload[5] = 0xff;
  record->payload[6] = 0xff;
  EXPECT_EQ(DecodeScan(record->payload).status().code(), StatusCode::kDataLoss);
}

// --- Digests ---

TEST(TraceDigest, SensitiveToEveryDetectionField) {
  spod::Detection d;
  d.box.center = {1.0, 2.0, 0.5};
  d.box.length = 4.0;
  d.box.width = 1.8;
  d.box.height = 1.5;
  d.box.yaw = 0.3;
  d.score = 0.9;
  d.num_points = 50;
  const std::uint64_t base = DigestDetections({d});

  auto flipped = d;
  flipped.score = std::nextafter(d.score, 1.0);  // one ulp
  EXPECT_NE(DigestDetections({flipped}), base);
  flipped = d;
  flipped.box.center.x = std::nextafter(d.box.center.x, 2.0);
  EXPECT_NE(DigestDetections({flipped}), base);
  flipped = d;
  flipped.num_points = 51;
  EXPECT_NE(DigestDetections({flipped}), base);
  flipped = d;
  flipped.cls = spod::ObjectClass::kPedestrian;
  EXPECT_NE(DigestDetections({flipped}), base);

  EXPECT_NE(DigestDetections({d, d}), base);  // count matters
  EXPECT_EQ(DigestDetections({d}), base);     // and it is a pure function
}

TEST(TraceDigest, CloudDigestIsOrderSensitive) {
  pc::PointCloud a = SmallCloud();
  pc::PointCloud b;
  b.Add(a[1].position, a[1].reflectance);
  b.Add(a[0].position, a[0].reflectance);
  b.Add(a[2].position, a[2].reflectance);
  EXPECT_NE(DigestCloud(a), DigestCloud(b));
}

// --- ParseTrace structural validation ---

TEST(ParseTrace, RejectsStructuralViolations) {
  {  // no records at all
    TraceWriter writer;
    EXPECT_EQ(ParseTrace(writer.bytes()).status().code(),
              StatusCode::kDataLoss);
  }
  {  // first record not config
    TraceWriter writer;
    writer.AppendWireFrame(1.0, {1});
    EXPECT_EQ(ParseTrace(writer.bytes()).status().code(),
              StatusCode::kDataLoss);
  }
  {  // missing end record
    TraceWriter writer;
    writer.AppendConfig(SmallConfig());
    EXPECT_EQ(ParseTrace(writer.bytes()).status().code(),
              StatusCode::kDataLoss);
  }
  {  // detect without digest
    TraceWriter writer;
    writer.AppendConfig(SmallConfig());
    writer.AppendScan(0, SmallCloud());
    writer.AppendDetect(DetectRecord{10.0, 0, {}});
    writer.AppendEnd(EndRecord{1, 0});
    EXPECT_EQ(ParseTrace(writer.bytes()).status().code(),
              StatusCode::kDataLoss);
  }
  {  // detect referencing an unknown scan
    TraceWriter writer;
    writer.AppendConfig(SmallConfig());
    writer.AppendDetect(DetectRecord{10.0, 3, {}});
    EXPECT_EQ(ParseTrace(writer.bytes()).status().code(),
              StatusCode::kDataLoss);
  }
  {  // end step count disagrees
    TraceWriter writer;
    writer.AppendConfig(SmallConfig());
    writer.AppendEnd(EndRecord{2, 0});
    EXPECT_EQ(ParseTrace(writer.bytes()).status().code(),
              StatusCode::kDataLoss);
  }
  {  // records after end
    TraceWriter writer;
    writer.AppendConfig(SmallConfig());
    writer.AppendEnd(EndRecord{0, 0});
    writer.AppendWireFrame(1.0, {1});
    EXPECT_EQ(ParseTrace(writer.bytes()).status().code(),
              StatusCode::kDataLoss);
  }
}

// --- Golden record -> replay, in memory ---

class GoldenReplayTest : public ::testing::Test {
 protected:
  static Trace RecordAndParse(const std::string& name) {
    auto bytes = RecordGolden(name);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto trace = ParseTrace(*bytes);
    EXPECT_TRUE(trace.ok()) << trace.status().ToString();
    return std::move(trace).value();
  }
};

TEST_F(GoldenReplayTest, FreshTJunctionRecordingReplaysBitIdentically) {
  const Trace trace = RecordAndParse("tj2");
  EXPECT_EQ(trace.end.step_count, 2u);
  EXPECT_EQ(trace.scans.size(), 1u);  // two steps share one ego scan
  const ReplayResult replay = Replay(trace);
  ASSERT_EQ(replay.steps.size(), 2u);
  EXPECT_TRUE(replay.matches_golden);
  for (const StepOutcome& step : replay.steps) {
    EXPECT_TRUE(step.matches_golden);
    EXPECT_GT(step.computed.fused_points, 0u);
    EXPECT_GT(step.computed.transmitter_points, 0u);
  }
  // The cooperator's package made it through the frame path.
  EXPECT_GE(replay.session_stats.packages_accepted, 1u);
}

TEST_F(GoldenReplayTest, RecordingIsADeterministicFunctionOfTheSeeds) {
  auto first = RecordGolden("tj2");
  auto second = RecordGolden("tj2");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // byte-identical, not merely equivalent
}

TEST_F(GoldenReplayTest, LossyRecordingCapturesFaultsAndReplays) {
  const Trace trace = RecordAndParse("lossy4");
  EXPECT_EQ(trace.end.step_count, 2u);
  EXPECT_FALSE(trace.fault_events.empty());
  bool any_fault = false;
  for (const auto& fe : trace.fault_events) any_fault |= fe.flags != 0;
  EXPECT_TRUE(any_fault);

  const ReplayResult replay = Replay(trace);
  EXPECT_TRUE(replay.matches_golden);
  // Several cooperators survived the lossy channel.
  EXPECT_GE(replay.session_stats.packages_accepted, 2u);
}

TEST_F(GoldenReplayTest, SmokeMatrixIsBitIdenticalOnFreshTJunction) {
  const Trace trace = RecordAndParse("tj2");
  const ConformanceReport report = RunConformance(trace, SmokeMatrix(4));
  EXPECT_TRUE(report.baseline.matches_golden);
  EXPECT_TRUE(report.all_identical);
  EXPECT_TRUE(report.all_match_golden);
  for (const CellResult& cell : report.cells) {
    EXPECT_TRUE(cell.identical_to_baseline) << CellName(cell.cell) << ": "
                                            << FormatDiff(*cell.diff);
  }
}

// --- Committed golden files ---

TEST_F(GoldenReplayTest, CommittedGoldenFilesReplayBitIdentically) {
  for (const GoldenCase& gc : GoldenCases()) {
    const std::string path =
        std::string(COOPER_TEST_DATA_DIR) + "/" + gc.filename;
    auto bytes = ReadTraceFile(path);
    ASSERT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
    auto trace = ParseTrace(*bytes);
    ASSERT_TRUE(trace.ok()) << path << ": " << trace.status().ToString();
    const ReplayResult replay = Replay(*trace);
    EXPECT_TRUE(replay.matches_golden) << path;
    EXPECT_EQ(replay.steps.size(), trace->end.step_count) << path;
  }
}

TEST_F(GoldenReplayTest, CommittedGoldenFilesMatchFreshRecordings) {
  // The committed bytes must be exactly what the recorder produces today —
  // any pipeline change that shifts one output bit shows up here.
  for (const GoldenCase& gc : GoldenCases()) {
    const std::string path =
        std::string(COOPER_TEST_DATA_DIR) + "/" + gc.filename;
    auto committed = ReadTraceFile(path);
    ASSERT_TRUE(committed.ok()) << path;
    auto fresh = RecordGolden(gc.name);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(*committed, *fresh) << gc.name
                                  << ": regenerate with cooper_replay record";
  }
}

TEST_F(GoldenReplayTest, RetiredKnobBytesAreIgnored) {
  // The config record still carries the bytes of two retired knobs (scratch
  // reuse and the rulebook cache).  Every committed golden holds 1 in both;
  // a trace holding 0 must still parse and replay bit-identically.
  const std::string path = std::string(COOPER_TEST_DATA_DIR) + "/" +
                           GoldenCases().front().filename;
  auto bytes = ReadTraceFile(path);
  ASSERT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
  auto original = ParseTrace(*bytes);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  TraceReader reader(*bytes);
  ASSERT_TRUE(reader.ReadHeader().ok());
  TraceWriter patched;
  bool saw_config = false;
  while (!reader.AtEnd()) {
    auto record = reader.Next();
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    if (record->tag == RecordTag::kConfig) {
      // Payload tail: u8 reuse | u8 obs | u8 rulebook | 8 x f64 fault
      // profile | u64 fault_seed | u64 scan_seed.
      std::vector<std::uint8_t>& p = record->payload;
      ASSERT_GT(p.size(), 83u);
      const std::size_t rulebook = p.size() - 81, reuse = p.size() - 83;
      ASSERT_EQ(p[reuse], 1u);
      ASSERT_EQ(p[rulebook], 1u);
      p[reuse] = 0;
      p[rulebook] = 0;
      saw_config = true;
    }
    patched.Append(record->tag, record->payload);
  }
  ASSERT_TRUE(saw_config);
  ASSERT_NE(patched.bytes(), *bytes);

  auto trace = ParseTrace(patched.bytes());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const ReplayResult want = Replay(*original);
  const ReplayResult got = Replay(*trace);
  EXPECT_TRUE(got.matches_golden);
  EXPECT_EQ(got.combined_digest, want.combined_digest);
  EXPECT_FALSE(DiffReplays(want, got).has_value());
}

// --- Differential diff machinery ---

TEST(DiffReplays, PinpointsFirstDivergingFloat) {
  StepOutcome step;
  step.computed.fused_points = 100;
  step.computed.num_voxels = 10;
  step.computed.transmitter_points = 40;
  spod::Detection d;
  d.box.center = {1.0, 2.0, 0.5};
  d.score = 0.75;
  step.detections = {d, d};
  step.computed.num_detections = 2;
  step.computed.detections_digest = DigestDetections(step.detections);

  ReplayResult baseline;
  baseline.steps = {step, step};

  ReplayResult cell = baseline;
  cell.steps[1].detections[1].box.center.y =
      std::nextafter(d.box.center.y, 3.0);
  cell.steps[1].computed.detections_digest =
      DigestDetections(cell.steps[1].detections);

  const auto diff = DiffReplays(baseline, cell);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->step, 1u);
  EXPECT_EQ(diff->stage, "detect");
  EXPECT_EQ(diff->field, "detections[1].box.center.y");
  EXPECT_EQ(diff->baseline_value, d.box.center.y);
  EXPECT_NE(diff->baseline_bits, diff->cell_bits);

  EXPECT_FALSE(DiffReplays(baseline, baseline).has_value());
}

TEST(DiffReplays, EarlierStageWins) {
  StepOutcome step;
  step.computed.fused_points = 100;
  ReplayResult baseline;
  baseline.steps = {step};
  ReplayResult cell = baseline;
  cell.steps[0].computed.transmitter_points = 1;  // reconstruct stage
  cell.steps[0].computed.fused_points = 99;       // merge stage
  const auto diff = DiffReplays(baseline, cell);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->stage, "reconstruct");
}

TEST(Matrix, ShapesAndNames) {
  EXPECT_EQ(FullMatrix(4).size(), 10u);
  EXPECT_EQ(SmokeMatrix(4).size(), 5u);
  MatrixCell cell;
  cell.num_threads = 4;
  cell.cache_reconstructions = false;
  EXPECT_EQ(CellName(cell), "t4,nocache,noobs,auto");
  // Sticky observability: every obs=off cell must precede every obs=on one.
  bool seen_obs = false;
  for (const MatrixCell& c : FullMatrix(4)) {
    if (c.observability) seen_obs = true;
    EXPECT_TRUE(!seen_obs || c.observability);
  }
}

}  // namespace
}  // namespace cooper::replay
