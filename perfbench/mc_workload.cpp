// mc_ensemble: back-to-back ensemble Monte-Carlo studies through
// analysis::evaluate_homogeneous_mc.
//
// One study = kLanes lanes x kCycles cycles of the paper IIR loop under a
// harmonic HoDV with a seeded period T_e and a seeded static mismatch per
// lane, on an explicit pool of nproc-1 workers (the caller claims work
// too).  Traced runs rebuild the study from the public pieces
// evaluate_homogeneous_mc is made of -- per tile, sample_homogeneous_into
// then EnsembleSimulator::run -- and time each piece from outside.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "roclk/analysis/ensemble_metrics.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/common/stream_key.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/core/inputs.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/signal/waveform.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using roclk::CounterRng;
using roclk::StreamKey;
using roclk::analysis::RunMetrics;
namespace core = roclk::core;

constexpr std::size_t kLanes = 1024;
constexpr std::size_t kCycles = 20000;
constexpr std::size_t kSkip = 1000;
constexpr double kSetpoint = 64.0;
constexpr double kAmplitude = 0.2 * kSetpoint;  // the paper's HoDV
constexpr double kMuBound = 0.1 * kSetpoint;
constexpr std::size_t kVerifyLanesPerStudy = 4;
constexpr std::size_t kSetupRepsPerStudy = 16;

struct StudyInputs {
  double te{0.0};  // HoDV period, stages
  std::vector<double> mus;
};

StudyInputs study_inputs(StreamKey key, std::uint64_t study) {
  CounterRng rng{key.split("inputs").at(study)};
  StudyInputs in;
  in.te = kSetpoint * std::exp(rng.uniform(std::log(20.0), std::log(200.0)));
  in.mus.resize(kLanes);
  for (double& mu : in.mus) mu = rng.uniform(-kMuBound, kMuBound);
  return in;
}

double fixed_period() {
  return roclk::analysis::fixed_clock_period(kSetpoint, kAmplitude, kMuBound);
}

/// The study's set-up: the worker pool and the 1024-lane ensemble.
struct McRig {
  std::unique_ptr<roclk::ThreadPool> pool;
  core::EnsembleSimulator ensemble;

  static McRig make() {
    const std::size_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    auto pool =
        std::make_unique<roclk::ThreadPool>(std::max<std::size_t>(1, nproc - 1));
    core::LoopConfig loop;
    loop.setpoint_c = kSetpoint;
    loop.cdn_delay_stages = kSetpoint;
    loop.mode = core::GeneratorMode::kControlledRo;
    const roclk::control::IirControlHardware prototype{
        roclk::control::paper_iir_config()};
    return McRig{std::move(pool),
                 core::EnsembleSimulator::uniform(loop, &prototype, kLanes)};
  }

  [[nodiscard]] std::size_t threads() const { return pool->size() + 1; }
};

std::vector<RunMetrics> run_study(McRig& rig, const StudyInputs& in,
                                  roclk::ThreadPool* pool) {
  return roclk::analysis::evaluate_homogeneous_mc(
      rig.ensemble, roclk::signal::SineWaveform{kAmplitude, in.te}, in.mus,
      kCycles, kSetpoint, {fixed_period()}, kSkip, pool);
}

bool same_metrics(const RunMetrics& a, const RunMetrics& b) {
  const double x[] = {a.safety_margin, a.mean_period,
                      a.relative_adaptive_period, a.tau_ripple};
  const double y[] = {b.safety_margin, b.mean_period,
                      b.relative_adaptive_period, b.tau_ripple};
  return std::memcmp(x, y, sizeof x) == 0 && a.violations == b.violations;
}

/// One lane the verifier re-runs through the scalar reference.
struct LaneCheck {
  double te{0.0};
  double mu{0.0};
  RunMetrics metrics;
};

/// LoopSimulator::run_batch + evaluate_run: the reference the ensemble
/// equivalence suites hold the kernel to.
bool lane_matches_reference(const LaneCheck& check) {
  const auto inputs =
      core::SimulationInputs::harmonic(kAmplitude, check.te, check.mu);
  auto sim = core::make_iir_system(kSetpoint, kSetpoint);
  const auto trace = sim.run_batch(inputs.sample(kCycles, kSetpoint));
  return same_metrics(check.metrics,
                      roclk::analysis::evaluate_run(trace, kSetpoint,
                                                    fixed_period(), kSkip));
}

// ------------------------------------------------------------- tracing

/// Forwards to `inner`, reading the clock only on a chunk's first and
/// last cycle of each tile: the span a chunk spends producing and
/// reducing one tile (its first cycle's kernel step falls just before).
class ChunkTimingReducer final : public core::StreamingReducer {
 public:
  ChunkTimingReducer(core::StreamingReducer& inner, std::size_t lanes)
      : inner_{inner}, slots_(lanes) {}

  void begin_tile(std::size_t cycles) { last_cycle_ = cycles - 1; }

  void accumulate(const core::LaneSlice& slice) override {
    Slot& slot = slots_[slice.first_lane];
    if (slice.cycle == 0) slot.start = Clock::now();
    inner_.accumulate(slice);
    if (slice.cycle == last_cycle_) slot.busy += Clock::now() - slot.start;
  }
  [[nodiscard]] bool wants_full_slice() const override {
    return inner_.wants_full_slice();
  }

  [[nodiscard]] double busy_seconds() const {
    Clock::duration total{};
    for (const Slot& slot : slots_) total += slot.busy;
    return std::chrono::duration<double>(total).count();
  }

 private:
  // One cache line per chunk: chunks on different workers never share.
  struct alignas(64) Slot {
    Clock::time_point start;
    Clock::duration busy{};
  };
  core::StreamingReducer& inner_;
  std::vector<Slot> slots_;  // indexed by a chunk's first lane
  std::size_t last_cycle_{0};
};

/// Consumes nothing: the pass that prices the MetricsReducer by
/// difference.
class NoopReducer final : public core::StreamingReducer {
 public:
  void accumulate(const core::LaneSlice&) override {}
  [[nodiscard]] bool wants_full_slice() const override { return false; }
};

struct Composition {
  double sample_s{0.0};
  double run_s{0.0};
  double busy_s{0.0};
  double wall_s{0.0};
};

/// evaluate_homogeneous_mc rebuilt from its public pieces with the same
/// tile size, timing the sampling and the kernel of every tile.
Composition composed_study(McRig& rig, const StudyInputs& in,
                           core::StreamingReducer& reducer) {
  const Clock::time_point start = Clock::now();
  const std::size_t tile_cycles =
      std::max<std::size_t>(64, (256 * std::size_t{1024}) / (24 * kLanes));
  const roclk::signal::SineWaveform wave{kAmplitude, in.te};
  ChunkTimingReducer timed{reducer, kLanes};
  Composition c;
  rig.ensemble.reset();
  core::EnsembleInputBlock tile;
  for (std::size_t first = 0; first < kCycles; first += tile_cycles) {
    const std::size_t n = std::min(tile_cycles, kCycles - first);
    const Clock::time_point t0 = Clock::now();
    core::sample_homogeneous_into(tile, wave, in.mus, n, kSetpoint, first);
    const Clock::time_point t1 = Clock::now();
    timed.begin_tile(n);
    rig.ensemble.run(tile, timed, rig.pool.get());
    const Clock::time_point t2 = Clock::now();
    c.sample_s += seconds_between(t0, t1);
    c.run_s += seconds_between(t1, t2);
  }
  c.busy_s = timed.busy_seconds();
  c.wall_s = seconds_between(start, Clock::now());
  return c;
}

}  // namespace

Report run_mc_workload(const Options& options) {
  const StreamKey key = StreamKey{options.seed}.split(options.workload);
  Report report;

  auto rig = std::make_unique<McRig>(McRig::make());
  const auto rebuild = [&rig] {
    rig.reset();
    const Clock::time_point t0 = Clock::now();
    rig = std::make_unique<McRig>(McRig::make());
    return seconds_between(t0, Clock::now());
  };
  report.note("pool_workers", static_cast<double>(rig->pool->size()));
  report.note("threads", static_cast<double>(rig->threads()));
  report.note("lanes", static_cast<double>(kLanes));
  report.note("cycles", static_cast<double>(kCycles));

  reset_peak_rss();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  StealMonitor host{start};
  SetupSamples setup;
  std::vector<LaneCheck> checks;
  std::vector<bool> failed;  // per study: an isolated or mismatched lane
  std::uint64_t trace_mismatches = 0;
  std::vector<double> began_s, plain_s;
  std::vector<Composition> traced, noop;
  std::uint64_t study = 0;
  // Traced runs time each study three ways (plain, traced composition,
  // no-op reducer); untraced runs time the plain study, then rebuild the
  // rig kSetupRepsPerStudy times, timing each set-up, so that the set-up
  // reps spread over the whole window.
  while (study == 0 || Clock::now() < deadline) {
    const StudyInputs in = study_inputs(key, study);
    const Clock::time_point t0 = Clock::now();
    const std::vector<RunMetrics> metrics = run_study(*rig, in, rig->pool.get());
    began_s.push_back(seconds_between(start, t0));
    plain_s.push_back(seconds_between(t0, Clock::now()));
    failed.push_back(rig->ensemble.isolated_count() != 0);
    CounterRng pick{key.split("verify").at(study)};
    for (std::size_t k = 0; k < kVerifyLanesPerStudy; ++k) {
      const std::size_t lane = pick.uniform_int(kLanes);
      checks.push_back({in.te, in.mus[lane], metrics[lane]});
    }
    if (options.trace) {
      roclk::analysis::MetricsReducer reducer{
          std::vector<double>(kLanes, fixed_period()), kSkip};
      traced.push_back(composed_study(*rig, in, reducer));
      const std::vector<RunMetrics> recomposed = reducer.all();
      for (std::size_t w = 0; w < kLanes; ++w) {
        if (!same_metrics(recomposed[w], metrics[w])) {
          ++trace_mismatches;
          break;
        }
      }
      NoopReducer nothing;
      noop.push_back(composed_study(*rig, in, nothing));
    } else {
      for (std::size_t rep = 0; rep < kSetupRepsPerStudy; ++rep) {
        setup.take(start, rebuild);
      }
    }
    ++study;
  }
  const double elapsed = seconds_between(start, Clock::now());
  const double rss = peak_rss_mb();
  host.stop();

  for (std::size_t s = 0; s < study; ++s) {
    for (std::size_t k = 0; k < kVerifyLanesPerStudy; ++k) {
      if (!lane_matches_reference(checks[s * kVerifyLanesPerStudy + k])) {
        failed[s] = true;
      }
    }
  }
  report.attempted = study;
  report.failed = static_cast<std::uint64_t>(
      std::count(failed.begin(), failed.end(), true));
  report.note("verified_lanes", static_cast<double>(checks.size()));

  if (!options.trace) {
    const SetupTiming set_up = setup.summary(host);
    // The studies the host left alone (StealMonitor); all of them when it
    // left none alone.
    std::vector<bool> counted(study);
    for (std::size_t s = 0; s < study; ++s) {
      counted[s] = host.clean(began_s[s], began_s[s] + plain_s[s]);
    }
    if (std::find(counted.begin(), counted.end(), true) == counted.end()) {
      counted.assign(study, true);
    }
    Histogram latency;
    double ok = 0.0;
    double busy_s = 0.0;
    for (std::size_t s = 0; s < study; ++s) {
      if (!counted[s]) continue;
      latency.add(plain_s[s] * 1e9);
      busy_s += plain_s[s];
      if (!failed[s]) ok += 1.0;
    }
    report.metric("throughput_rps", ok / busy_s, "1/s");
    report.metric("lane_cycles_per_s",
                  ok * static_cast<double>(kLanes * kCycles) / busy_s, "1/s");
    report.metric("latency_p50_us", latency.quantile(0.50) * 1e-3, "us");
    report.metric("latency_p99_us", latency.quantile(0.99) * 1e-3, "us");
    report.metric("ok_rate",
                  static_cast<double>(report.attempted - report.failed) /
                      static_cast<double>(report.attempted),
                  "ratio");
    report.metric("setup_s", set_up.median_s, "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.note("latency_samples", static_cast<double>(latency.count()));
    report.note("latency_p90_us", latency.quantile(0.90) * 1e-3);
    report.note("latency_p95_us", latency.quantile(0.95) * 1e-3);
    report.note("setup_reps", static_cast<double>(set_up.reps));
    report.note("setup_reps_counted", static_cast<double>(set_up.counted));
    report.note("elapsed_s", elapsed);
    report.note("host_steal_share", host.steal_share());
    report.note("clean_s", busy_s);
  } else {
    // Efficiency base: the same study on the caller alone.
    const StudyInputs in = study_inputs(key, 0);
    const Clock::time_point t0 = Clock::now();
    (void)run_study(*rig, in, nullptr);
    const double one_thread_s = seconds_between(t0, Clock::now());

    auto mean = [](const std::vector<Composition>& v, double Composition::*f) {
      double sum = 0.0;
      for (const Composition& c : v) sum += c.*f;
      return sum / static_cast<double>(v.size());
    };
    double plain_mean = 0.0;
    for (const double s : plain_s) plain_mean += s;
    plain_mean /= static_cast<double>(plain_s.size());
    const double sample = mean(traced, &Composition::sample_s);
    const double run = mean(traced, &Composition::run_s);
    const double busy = mean(traced, &Composition::busy_s);
    const auto threads = static_cast<double>(rig->threads());
    report.metric("core.inputs.sample_s", sample, "s");
    report.metric("core.inputs.sample_share", sample / (sample + run),
                  "ratio");
    report.metric("core.ensemble.run_s", run, "s");
    report.metric("core.ensemble.chunk_busy_s", busy, "s");
    report.metric("core.ensemble.lane_cycles",
                  static_cast<double>(traced.size() * kLanes * kCycles),
                  "count");
    report.metric("analysis.metrics_reducer.reduce_s",
                  run - mean(noop, &Composition::run_s), "s");
    report.metric("common.thread_pool.forkjoin_wait_s",
                  threads * run - busy, "s");
    report.metric("common.thread_pool.efficiency",
                  one_thread_s / (threads * plain_mean), "ratio");
    report.metric("trace.overhead_ratio",
                  mean(traced, &Composition::wall_s) / plain_mean, "ratio");
    report.note("traced_studies", static_cast<double>(traced.size()));
    if (trace_mismatches != 0) {
      report.correct = false;
      report.note("trace_error",
                  "traced composition differs from evaluate_homogeneous_mc");
    }
  }
  report.correct = report.correct && report.failed == 0;
  return report;
}

}  // namespace perfbench
