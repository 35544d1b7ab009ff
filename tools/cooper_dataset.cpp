// cooper_dataset — dataset generation and offline detection CLI.
//
// Bridges the simulator to on-disk KITTI-style data, so the library's
// detector can be exercised against files the way it would be against real
// velodyne logs:
//
//   cooper_dataset generate <out_dir> [--scenario tj1|tj2|tj3|tj4|kitti1..4]
//       writes one .bin per viewpoint (KITTI float32 x,y,z,r layout), a
//       poses.csv with each viewpoint's GPS/IMU state, and a labels.csv
//       with ground-truth boxes (world frame).
//
//   cooper_dataset detect <scan.bin> [--beams N]
//       runs SPOD on a scan file and prints the detections.
//
//   cooper_dataset fuse <receiver.bin> <transmitter.bin> <poses.csv> [--beams N]
//       reconstructs + fuses the two scans (rows 0 and 1 of poses.csv) and
//       prints single-shot vs cooperative detections.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/cooper.h"
#include "eval/experiment.h"
#include "pointcloud/io.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

using namespace cooper;

namespace {

sim::Scenario PickScenario(const std::string& name) {
  if (name == "kitti1") return sim::MakeKittiTJunction();
  if (name == "kitti2") return sim::MakeKittiStopSign();
  if (name == "kitti3") return sim::MakeKittiLeftTurn();
  if (name == "kitti4") return sim::MakeKittiCurve();
  if (name == "tj2") return sim::MakeTjScenario(2);
  if (name == "tj3") return sim::MakeTjScenario(3);
  if (name == "tj4") return sim::MakeTjScenario(4);
  return sim::MakeTjScenario(1);
}

int Generate(const std::string& out_dir, const std::string& scenario_name) {
  const auto sc = PickScenario(scenario_name);
  const sim::LidarSimulator lidar(sc.lidar);
  Rng rng(sc.seed);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  std::ofstream poses(out_dir + "/poses.csv");
  if (!poses) {
    std::fprintf(stderr, "cannot write %s/poses.csv\n", out_dir.c_str());
    return 1;
  }
  poses << "index,name,x,y,z,yaw,pitch,roll,sensor_height,beams\n";
  for (std::size_t i = 0; i < sc.viewpoints.size(); ++i) {
    const auto& vp = sc.viewpoints[i];
    const auto cloud = lidar.Scan(sc.scene, vp.ToPose(), rng);
    const std::string path = out_dir + "/" + vp.name + ".bin";
    if (const auto s = pc::WriteKittiBin(path, cloud); !s.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), s.ToString().c_str());
      return 1;
    }
    poses << i << ',' << vp.name << ',' << vp.position.x << ','
          << vp.position.y << ',' << vp.position.z << ',' << vp.attitude.yaw
          << ',' << vp.attitude.pitch << ',' << vp.attitude.roll << ','
          << sc.lidar.sensor_height << ',' << sc.lidar.beams << '\n';
    std::printf("wrote %s (%zu points)\n", path.c_str(), cloud.size());
  }

  std::ofstream labels(out_dir + "/labels.csv");
  labels << "id,class,x,y,z,length,width,height,yaw\n";
  for (const auto& obj : sc.scene.objects()) {
    labels << obj.id << ',' << sim::ObjectClassName(obj.cls) << ','
           << obj.box.center.x << ',' << obj.box.center.y << ','
           << obj.box.center.z << ',' << obj.box.length << ',' << obj.box.width
           << ',' << obj.box.height << ',' << obj.box.yaw << '\n';
  }
  std::printf("wrote %s/poses.csv and %s/labels.csv (%zu objects)\n",
              out_dir.c_str(), out_dir.c_str(), sc.scene.objects().size());
  return 0;
}

struct PoseRow {
  std::string name;
  core::NavMetadata nav;
};

bool ReadPoses(const std::string& path, std::vector<PoseRow>* rows) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    PoseRow row;
    char name[128] = {0};
    double x, y, z, yaw, pitch, roll, h;
    int idx, beams;
    if (std::sscanf(line.c_str(), "%d,%127[^,],%lf,%lf,%lf,%lf,%lf,%lf,%lf,%d",
                    &idx, name, &x, &y, &z, &yaw, &pitch, &roll, &h,
                    &beams) != 10) {
      continue;
    }
    row.name = name;
    row.nav.gps_position = {x, y, z};
    row.nav.imu_attitude = {yaw, pitch, roll};
    row.nav.lidar_mount = {0, 0, h};
    rows->push_back(row);
  }
  return rows->size() >= 1;
}

core::CooperConfig ConfigForBeams(int beams) {
  sim::LidarConfig lidar = beams >= 32 ? sim::Hdl64Config() : sim::Vlp16Config();
  return eval::MakeCooperConfig(lidar);
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// `ms` is the wall time of the call that produced `result`.
void PrintDetections(const spod::SpodResult& result, double ms) {
  std::printf("%zu detections (%zu input points, %.1f ms):\n",
              result.detections.size(), result.num_input_points, ms);
  for (const auto& d : result.detections) {
    if (d.score < 0.5) continue;
    std::printf("  %-10s %.2f at (%7.2f, %7.2f) %4.1fx%3.1f yaw %5.1f deg\n",
                spod::ObjectClassName(d.cls), d.score, d.box.center.x,
                d.box.center.y, d.box.length, d.box.width,
                geom::RadToDeg(d.box.yaw));
  }
}

int Detect(const std::string& path, int beams) {
  const auto cloud = pc::ReadKittiBin(path);
  if (!cloud.ok()) {
    std::fprintf(stderr, "%s\n", cloud.status().ToString().c_str());
    return 1;
  }
  const core::CooperPipeline pipeline(ConfigForBeams(beams));
  const auto t0 = std::chrono::steady_clock::now();
  const spod::SpodResult result = pipeline.DetectSingleShot(*cloud);
  PrintDetections(result, MsSince(t0));
  return 0;
}

int Fuse(const std::string& rx_path, const std::string& tx_path,
         const std::string& poses_path, int beams) {
  const auto rx = pc::ReadKittiBin(rx_path);
  const auto tx = pc::ReadKittiBin(tx_path);
  if (!rx.ok() || !tx.ok()) {
    std::fprintf(stderr, "failed to read scans\n");
    return 1;
  }
  std::vector<PoseRow> poses;
  if (!ReadPoses(poses_path, &poses) || poses.size() < 2) {
    std::fprintf(stderr, "failed to read two poses from %s\n", poses_path.c_str());
    return 1;
  }
  // Match pose rows to the scan files by basename ("<dir>/car3.bin" -> car3).
  auto stem = [](const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
  };
  auto find_pose = [&](const std::string& path) -> const PoseRow* {
    for (const auto& row : poses) {
      if (row.name == stem(path)) return &row;
    }
    return nullptr;
  };
  const PoseRow* rx_pose = find_pose(rx_path);
  const PoseRow* tx_pose = find_pose(tx_path);
  if (rx_pose == nullptr || tx_pose == nullptr) {
    std::fprintf(stderr, "no pose row named '%s' or '%s' in %s\n",
                 stem(rx_path).c_str(), stem(tx_path).c_str(),
                 poses_path.c_str());
    return 1;
  }

  const core::CooperPipeline pipeline(ConfigForBeams(beams));
  std::printf("--- single shot (%s) ---\n", rx_pose->name.c_str());
  auto t0 = std::chrono::steady_clock::now();
  const spod::SpodResult single = pipeline.DetectSingleShot(*rx);
  PrintDetections(single, MsSince(t0));

  const auto package = pipeline.MakePackage(1, 0.0, core::RoiCategory::kFullFrame,
                                            tx_pose->nav, *tx);
  t0 = std::chrono::steady_clock::now();
  const auto coop = pipeline.DetectCooperative(*rx, rx_pose->nav, package);
  const double coop_ms = MsSince(t0);
  if (!coop.ok()) {
    std::fprintf(stderr, "%s\n", coop.status().ToString().c_str());
    return 1;
  }
  std::printf("--- Cooper (%s + %s, %.2f Mbit exchanged) ---\n",
              rx_pose->name.c_str(), tx_pose->name.c_str(),
              package.PayloadMbit());
  PrintDetections(coop->fused, coop_ms);
  return 0;
}

int ParseBeams(int argc, char** argv, int default_beams) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--beams") == 0) return std::atoi(argv[i + 1]);
  }
  return default_beams;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage:\n"
                 "  %s generate <out_dir> [--scenario tj1..4|kitti1..4]\n"
                 "  %s detect <scan.bin> [--beams N]\n"
                 "  %s fuse <rx.bin> <tx.bin> <poses.csv> [--beams N]\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "generate") {
    std::string scenario = "tj1";
    for (int i = 2; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--scenario") == 0) scenario = argv[i + 1];
    }
    return Generate(argv[2], scenario);
  }
  if (cmd == "detect") return Detect(argv[2], ParseBeams(argc, argv, 16));
  if (cmd == "fuse" && argc >= 5) {
    return Fuse(argv[2], argv[3], argv[4], ParseBeams(argc, argv, 16));
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
