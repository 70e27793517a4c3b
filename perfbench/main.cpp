// roclk_perfbench: one run of one benchmark workload.
//
//   roclk_perfbench --workload svc_hot|svc_cold|mc_ensemble --seed N
//                   --seconds S --trace 0|1 --work-dir DIR
//
// Prints a context object (host, backend, build, seed, concurrency) and,
// as the last line of stdout, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the layers the workload exercises (--trace 1).  Exits 0 only when every
// output verified.  perfbench/run.py builds this binary, orders the
// metrics as BENCHMARK.json lists them, and is the entry point
// BENCHMARK.json names.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "roclk/common/simd.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

bool parse(int argc, char** argv, Options& options) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         !options.work_dir.empty() && options.seconds > 0.0 &&
         options.seconds <= 120.0 &&
         (options.workload == "svc_hot" || options.workload == "svc_cold" ||
          options.workload == "mc_ensemble");
}

/// Ends the process if the run overruns: every run must finish within
/// 180 s, and a wedged thread would otherwise hold it forever.
class Watchdog {
 public:
  explicit Watchdog(double limit_s)
      : thread_{[this, limit_s] {
          std::unique_lock<std::mutex> lock{mutex_};
          if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s),
                            [this] { return done_; })) {
            abort_run("run exceeded its time limit", 3);
          }
        }} {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_{false};
  std::thread thread_;  // last: starts after the members it reads
};

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: roclk_perfbench --workload svc_hot|svc_cold|"
                 "mc_ensemble --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n");
    return 2;
  }
  Watchdog watchdog{std::min(170.0, options.seconds * 3.0 + 60.0)};

  Report report = options.workload == "mc_ensemble"
                      ? run_mc_workload(options)
                      : run_service_workload(options);
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.correct = false;
      report.note("non_finite_metric", m.name);
    }
  }

  const double error_rate =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::string context = "{\"context\": {\"workload\": \"" + options.workload +
                        "\", \"seed\": " + std::to_string(options.seed) +
                        ", \"seconds\": " + json_number(options.seconds) +
                        ", \"trace\": " + (options.trace ? "1" : "0") +
                        ", \"nproc\": " +
                        std::to_string(std::thread::hardware_concurrency()) +
                        ", \"simd_backend\": \"" +
                        roclk::simd::to_string(roclk::simd::active_backend()) +
                        "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                        "\", \"git_sha\": \"" PERFBENCH_GIT_SHA
                        "\", \"error_rate\": " + json_number(error_rate);
  for (const auto& [key, value] : report.context) {
    context += ", \"" + key + "\": " + value;
  }
  context += "}}";
  std::printf("%s\n", context.c_str());

  std::string result = std::string{"{\"correct\": "} +
                       (report.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    result += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
              (std::isfinite(m.value) ? json_number(m.value) : "null") +
              ", \"unit\": \"" + m.unit + "\"}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
