#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

constexpr int kSubBits = 6;
constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
constexpr int kMinOctave = 6;  // everything below 64 ns shares bucket 0
constexpr int kOctaves = 34;   // [2^6 ns, 2^40 ns) ~ [64 ns, 18 min)

std::size_t bucket_of(double ns) {
  if (!(ns >= std::ldexp(1.0, kMinOctave))) return 0;
  int exponent = 0;
  const double mantissa = std::frexp(ns, &exponent);  // [0.5, 1)
  const int octave = exponent - 1 - kMinOctave;
  if (octave >= kOctaves) return kOctaves * kSubBuckets - 1;
  const auto sub = static_cast<std::size_t>((mantissa - 0.5) * 2.0 *
                                            static_cast<double>(kSubBuckets));
  return static_cast<std::size_t>(octave) * kSubBuckets +
         std::min(sub, kSubBuckets - 1);
}

double bucket_low(std::size_t bucket) {
  const auto octave = static_cast<int>(bucket / kSubBuckets);
  const auto sub = static_cast<double>(bucket % kSubBuckets);
  return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets),
                    octave + kMinOctave);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Histogram::Histogram() : buckets_(kOctaves * kSubBuckets, 0) {}

void Histogram::add(double ns) {
  ns = std::max(ns, 0.0);
  ++buckets_[bucket_of(ns)];
  if (count_ == 0) {
    min_ = max_ = ns;
  } else {
    min_ = std::min(min_, ns);
    max_ = std::max(max_, ns);
  }
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(count_ - 1);
  double before = 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const auto in_bucket = static_cast<double>(buckets_[b]);
    if (in_bucket == 0.0) continue;
    if (rank < before + in_bucket) {
      const double low = b == 0 ? 0.0 : bucket_low(b);
      const double high = bucket_low(b + 1);
      const double frac = (rank - before + 0.5) / in_bucket;
      return std::clamp(low + (high - low) * frac, min_, max_);
    }
    before += in_bucket;
  }
  return max_;
}

void Report::note(std::string key, const std::string& value) {
  std::string quoted = "\"";
  quoted += json_escape(value);
  quoted += '"';
  context.emplace_back(std::move(key), std::move(quoted));
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void Report::note(std::string key, double value) {
  context.emplace_back(std::move(key), json_number(value));
}

void reset_peak_rss() {
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields{line.substr(6)};
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

StealMonitor::StealMonitor(Clock::time_point start)
    : start_{start},
      readings_{read()},
      thread_{[this] {
        std::unique_lock<std::mutex> lock{mutex_};
        for (int second = 1;; ++second) {
          if (cv_.wait_until(lock, start_ + std::chrono::seconds{second},
                             [this] { return stopping_; })) {
            return;
          }
          readings_.push_back(read());
        }
      }} {}

StealMonitor::~StealMonitor() { stop(); }

void StealMonitor::stop() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // A last interval much shorter than a second holds too few clock ticks
  // to judge; it joins the one before.
  Reading last = read();
  if (readings_.size() > 1 && last.at_s - readings_.back().at_s < 0.5) {
    readings_.pop_back();
  }
  readings_.push_back(last);
  for (std::size_t i = 0; i + 1 < readings_.size(); ++i) {
    const Reading& a = readings_[i];
    const Reading& b = readings_[i + 1];
    const double total = b.total - a.total;
    clean_.push_back(total <= 0.0 ||
                     (b.steal - a.steal) / total < kMaxStealShare);
  }
}

bool StealMonitor::clean(double from_s, double to_s) const {
  for (std::size_t i = 0; i < clean_.size(); ++i) {
    if (readings_[i].at_s < to_s && readings_[i + 1].at_s > from_s &&
        !clean_[i]) {
      return false;
    }
  }
  return true;
}

double StealMonitor::steal_share() const {
  const Reading& a = readings_.front();
  const Reading& b = readings_.back();
  const double total = b.total - a.total;
  return total > 0.0 ? (b.steal - a.steal) / total : 0.0;
}

StealMonitor::Reading StealMonitor::read() const {
  std::ifstream stat{"/proc/stat"};
  std::string label;
  stat >> label;  // "cpu": the sum over every CPU
  Reading reading;
  reading.at_s = seconds_between(start_, Clock::now());
  // user nice system idle iowait irq softirq steal
  double field = 0.0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    reading.total += field;
    if (i == 7) reading.steal = field;
  }
  return reading;
}

void SetupSamples::take(Clock::time_point start,
                        const std::function<double()>& set_up) {
  began_s_.push_back(seconds_between(start, Clock::now()));
  took_s_.push_back(set_up());
}

SetupTiming SetupSamples::summary(const StealMonitor& host) const {
  std::vector<double> counted;
  for (std::size_t i = 0; i < took_s_.size(); ++i) {
    if (host.clean(began_s_[i], began_s_[i] + took_s_[i])) {
      counted.push_back(took_s_[i]);
    }
  }
  if (counted.empty()) counted = took_s_;
  SetupTiming timing;
  timing.reps = took_s_.size();
  timing.counted = counted.size();
  timing.median_s = median(std::move(counted));
  return timing;
}

SetupTiming time_set_ups(double window_s,
                         const std::function<double()>& set_up) {
  const Clock::time_point start = Clock::now();
  StealMonitor host{start};
  SetupSamples samples;
  do {
    samples.take(start, set_up);
  } while (seconds_between(start, Clock::now()) < window_s);
  host.stop();
  return samples.summary(host);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void abort_run(const std::string& why, int code) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fflush(stderr);
  std::_Exit(code);
}

}  // namespace perfbench
