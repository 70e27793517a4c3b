// Shared pieces of the roclk benchmark binary: run options, a fixed-memory
// latency histogram, the per-run report, and small clock/process helpers.
//
// Everything here belongs to the benchmark, not to the library: the
// benchmark measures roclk from outside, through its public headers only.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::string work_dir;  // scratch space for journals; removed per run
};

/// Log-linear histogram of non-negative durations in nanoseconds: 64
/// sub-buckets per power of two (<= 1.6% bucket width) from 64 ns up,
/// 8.7 KB however many samples arrive, mergeable across threads.  Quantiles
/// interpolate by rank inside the bucket, so they keep full resolution
/// across runs instead of snapping to bucket edges.
class Histogram {
 public:
  Histogram();
  void add(double ns);
  void merge(const Histogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// q in [0, 1], linear-interpolation rank convention (q * (n - 1));
  /// 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_{0};
  double min_{0.0};
  double max_{0.0};
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// What one workload run produced.  `context` entries are printed as a
/// JSON object on the line before the result, so every number carries the
/// host, backend, build, seed and concurrency it was measured under.
struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  bool correct{true};
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;  // raw JSON

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, const std::string& value);  // JSON string
  void note(std::string key, double value);              // JSON number
};

/// Restarts the kernel's peak-RSS tracking (VmHWM) at the current
/// resident size, so that a later peak_rss_mb() covers only what follows:
/// the timed window, with the set-up state still live.
void reset_peak_rss();

/// Peak resident set size (VmHWM) since the last reset_peak_rss(), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Tells which seconds of a timed window the host left alone.  A thread
/// reads the machine's steal counter (/proc/stat: time the hypervisor gave
/// other guests while a CPU of this one wanted to run) at every whole
/// second after `start`, and once more at stop().  An interval between
/// two readings is clean when less than kMaxStealShare of the machine's
/// CPU time was stolen in it.  On a shared host, bursts of 15-25% steal
/// cut a run's throughput by up to 3x; clean() lets the end-to-end metrics
/// leave those seconds out.  A stall of roclk's own steals nothing, so it
/// stays in.
class StealMonitor {
 public:
  static constexpr double kMaxStealShare = 0.05;

  explicit StealMonitor(Clock::time_point start);
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Takes the last reading and ends the thread.  Call once, at the end
  /// of the window, before any query.
  void stop();

  /// Whether every interval overlapping [from_s, to_s), in seconds after
  /// `start`, was clean.
  [[nodiscard]] bool clean(double from_s, double to_s) const;
  /// Share of the machine's CPU time stolen over the whole window.
  [[nodiscard]] double steal_share() const;

 private:
  struct Reading {
    double at_s{0.0};
    double steal{0.0};
    double total{0.0};
  };
  [[nodiscard]] Reading read() const;

  Clock::time_point start_;
  std::vector<Reading> readings_;
  std::vector<bool> clean_;  // per interval between readings
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_{false};
  std::thread thread_;  // last: starts after the members it uses
};

/// `value` with all its digits (%.17g), as a JSON number.
[[nodiscard]] std::string json_number(double value);

/// What a run's set-up timing found.
struct SetupTiming {
  double median_s{0.0};  // over the counted reps
  std::size_t reps{0};
  std::size_t counted{0};  // reps in clean seconds; all when none was
};

/// Repeated timings of a workload's set-up.  A set-up takes well under a
/// millisecond, and its speed on a shared host drifts by a third from one
/// second to the next, so a burst of reps at one moment reads whatever the
/// host happened to be doing then.  Reps spread over seconds, with the
/// seconds a StealMonitor flags left out, do not.
class SetupSamples {
 public:
  /// Calls `set_up` once.  It tears down what its previous call built,
  /// outside its timing, builds it again and returns the seconds the
  /// build took.  The rep is noted with its start, in seconds after
  /// `start`, the StealMonitor's origin.
  void take(Clock::time_point start, const std::function<double()>& set_up);
  /// Median over the reps `host` (stopped) finds clean.
  [[nodiscard]] SetupTiming summary(const StealMonitor& host) const;

 private:
  std::vector<double> began_s_;
  std::vector<double> took_s_;
};

/// Wall time a service run spends timing its set-up, before its drive.
constexpr double kSetupWindowS = 3.0;

/// Calls `set_up` (as in SetupSamples::take) back to back for `window_s`
/// seconds under a StealMonitor of its own.
[[nodiscard]] SetupTiming time_set_ups(double window_s,
                                       const std::function<double()>& set_up);

/// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// Ends the process with `code` after printing `why` to stderr.  Used when
/// a bounded wait expires: the thread that overran cannot be joined, and
/// a hung benchmark is worse than a failed one.
[[noreturn]] void abort_run(const std::string& why, int code);

}  // namespace perfbench
