// svc_hot and svc_cold: closed-loop sweep-service traffic.
//
// Every client owns one socketpair connection whose server end runs
// run_server_session on its own thread against one SweepService with the
// daemon's defaults -- the exact frame path roclk_sweepd serves.  A client
// sends its next request only after the previous response arrived.
//
// Traced runs wrap the server end of each connection in TimingStream, a
// ByteStream decorator, and hook ServiceConfig::before_execute; nothing
// inside the library is instrumented.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "roclk/analysis/sweep_cache.hpp"
#include "roclk/common/stream_key.hpp"
#include "roclk/service/client.hpp"
#include "roclk/service/execute.hpp"
#include "roclk/service/server.hpp"
#include "roclk/service/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using roclk::CounterRng;
using roclk::Result;
using roclk::StreamKey;
using roclk::analysis::SweepMemo;
using namespace roclk::service;

constexpr std::size_t kHotScenarios = 64;
constexpr std::size_t kGridPoints = 32;
constexpr std::size_t kVerifyPerClient = 16;
constexpr std::size_t kCodecSamplesPerClient = 4096;
// A failed request counts as missing every latency limit.
constexpr double kFailedLatencyNs = 1e15;
constexpr auto kSessionEndBound = std::chrono::seconds{10};

enum class Mix { kHot, kCold };

// ------------------------------------------------------------- requests

CornerQuery random_corner(CounterRng& rng, std::uint32_t system) {
  CornerQuery c;
  c.system = system;
  c.tclk_over_c = rng.uniform(0.5, 2.0);
  c.te_over_c = std::exp(rng.uniform(std::log(10.0), std::log(200.0)));
  c.mu_over_c = rng.uniform(-0.1, 0.1);
  return c;  // cycles stay 0: the service resolves its default
}

/// Loop lane-cycles a normalized request asks for; a yield curve runs no
/// loop cycles.
double lane_cycles_of(const Request& normalized) {
  switch (normalized.kind) {
    case QueryKind::kCornerMargin:
      return static_cast<double>(normalized.corner.cycles);
    case QueryKind::kGridSweep:
      return static_cast<double>(normalized.grid.points) *
             static_cast<double>(normalized.grid.base.cycles);
    case QueryKind::kYieldCurve:
      return 0.0;
  }
  return 0.0;
}

/// The hot set: kHotScenarios IIR corners drawn from the seed, requested
/// with a Zipf(1) popularity over their rank.
struct HotSet {
  std::vector<Request> requests;
  std::vector<double> lane_cycles;
  std::vector<double> cumulative;  // Zipf CDF over rank

  explicit HotSet(StreamKey key) {
    CounterRng rng{key};
    double total = 0.0;
    for (std::size_t k = 0; k < kHotScenarios; ++k) {
      Request request;
      request.kind = QueryKind::kCornerMargin;
      request.corner = random_corner(rng, 0);
      requests.push_back(request);
      lane_cycles.push_back(lane_cycles_of(normalize(request).value()));
      total += 1.0 / static_cast<double>(k + 1);
      cumulative.push_back(total);
    }
    for (double& c : cumulative) c /= total;
  }
};

/// One client's seeded request stream.
class RequestSource {
 public:
  RequestSource(Mix mix, StreamKey key, const HotSet* hot)
      : mix_{mix}, rng_{key}, hot_{hot} {}

  /// The next request and the loop lane-cycles it asks for.
  std::pair<Request, double> next() {
    if (mix_ == Mix::kHot) {
      const double u = rng_.uniform();
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(hot_->cumulative.begin(), hot_->cumulative.end(),
                           u) -
          hot_->cumulative.begin());
      const std::size_t k = std::min(rank, kHotScenarios - 1);
      return {hot_->requests[k], hot_->lane_cycles[k]};
    }
    const Request request = next_cold();
    return {request, lane_cycles_of(normalize(request).value())};
  }

 private:
  // ~70% unique corners, ~15% grids, ~10% drill-downs into an earlier
  // grid of this client, ~5% yield curves.
  Request next_cold() {
    Request request;
    const double u = rng_.uniform();
    if (u < 0.70) {
      request.kind = QueryKind::kCornerMargin;
      request.corner = random_corner(
          rng_, static_cast<std::uint32_t>(rng_.uniform_int(3)));
    } else if (u < 0.85 || (u < 0.95 && grids_.empty())) {
      request.kind = QueryKind::kGridSweep;
      GridQuery& g = request.grid;
      g.base = random_corner(
          rng_, static_cast<std::uint32_t>(rng_.uniform_int(2)));
      g.points = kGridPoints;
      if (rng_.uniform_int(2) == 0) {
        g.axis = GridAxis::kMuOverC;
        g.lo = -0.1;
        g.hi = 0.1;
      } else {
        g.axis = GridAxis::kTclkOverC;
        g.lo = 0.5;
        g.hi = 2.0;
      }
      grids_.push_back(g);
    } else if (u < 0.95) {
      // The same arithmetic the service uses for grid point i, so the
      // corner repeats that point exactly.
      const GridQuery& g = grids_[rng_.uniform_int(grids_.size())];
      const auto i = static_cast<double>(rng_.uniform_int(g.points));
      const double x =
          g.lo + (g.hi - g.lo) * (i / (static_cast<double>(g.points) - 1.0));
      request.kind = QueryKind::kCornerMargin;
      request.corner = g.base;
      (g.axis == GridAxis::kMuOverC ? request.corner.mu_over_c
                                    : request.corner.tclk_over_c) = x;
    } else {
      request.kind = QueryKind::kYieldCurve;
      request.yield.seed = rng_();
    }
    return request;
  }

  Mix mix_;
  CounterRng rng_;
  const HotSet* hot_;
  std::vector<GridQuery> grids_;
};

// ------------------------------------------------------------- tracing

/// Server-side timestamps of one request: end of its last read, start of
/// its simulation (before_execute; unset for cache hits and coalesced
/// waiters), start of its response write.
struct Span {
  Clock::time_point read_end;
  Clock::time_point execute_start;
  Clock::time_point write_start;
};

/// ByteStream decorator handed to run_server_session: frames are served
/// in order, so the first write after a run of reads opens the response
/// to the request those reads carried.
class TimingStream final : public ByteStream {
 public:
  TimingStream(int fd, std::vector<Span>& spans)
      : inner_{fd}, spans_{spans} {}

  IoResult read_some(void* buffer, std::size_t bytes) override {
    const IoResult result = inner_.read_some(buffer, bytes);
    read_end_ = Clock::now();
    in_request_ = true;
    return result;
  }
  IoResult write_some(const void* buffer, std::size_t bytes) override {
    if (in_request_) {
      spans_.push_back({read_end_, execute_start_, Clock::now()});
      in_request_ = false;
      execute_start_ = {};
    }
    return inner_.write_some(buffer, bytes);
  }
  void close() override { inner_.close(); }
  [[nodiscard]] bool valid() const override { return inner_.valid(); }

  void mark_execute() { execute_start_ = Clock::now(); }

 private:
  FdByteStream inner_;
  std::vector<Span>& spans_;
  Clock::time_point read_end_;
  Clock::time_point execute_start_;
  bool in_request_{false};
};

// before_execute runs on the thread that owns the simulation -- with no
// sim_pool that is the session thread serving the request.
thread_local TimingStream* t_session_stream = nullptr;

// ------------------------------------------------------------- the rig

/// What a client saw for one request (traced phases only).
struct ClientRecord {
  Clock::time_point sent;
  Clock::time_point received;
  QueryKind kind;
  bool from_cache;
  bool coalesced;
};

struct VerifySample {
  Request request;
  Response response;
};

/// What one client completed in one whole second of the run.
struct Second {
  Histogram latency;
  double ok{0.0};
  double lane_cycles{0.0};
};

struct ClientOutcome {
  std::uint64_t attempted{0};
  std::uint64_t ok{0};
  std::uint64_t bad_status{0};
  std::uint64_t transport_errors{0};
  std::vector<Second> seconds;  // by the second a request completed in
  Clock::time_point finished;
  std::vector<VerifySample> reservoir;
  std::vector<ClientRecord> records;         // traced
  std::vector<VerifySample> codec_samples;   // traced
};

/// One fresh service with its sessions and connected clients: the unit of
/// set-up.  Teardown closes every client before waiting on any session,
/// and a session that does not end within kSessionEndBound ends the run.
class Rig {
 public:
  Rig(std::size_t clients, const fs::path& journal, bool traced)
      : journal_{journal},
        spans_(clients),
        ends_(clients, SessionEnd::kClientClosed) {
    ServiceConfig config;
    config.journal_path = journal_.string();
    if (traced) {
      config.before_execute = [] {
        if (t_session_stream != nullptr) t_session_stream->mark_execute();
      };
    }
    service_ = std::make_unique<SweepService>(std::move(config));
    for (std::size_t i = 0; i < clients; ++i) {
      FdStream client_end, server_end;
      if (const roclk::Status s = make_stream_pair(client_end, server_end);
          !s.is_ok()) {
        abort_run("socketpair: " + s.message(), 5);
      }
      clients_.emplace_back(std::move(client_end));
      sessions_.emplace_back([this, i, traced, fd = server_end.release()] {
        FdStream owned{fd};
        SessionEnd end = SessionEnd::kClientClosed;
        if (traced) {
          TimingStream stream{owned.fd(), spans_[i]};
          t_session_stream = &stream;
          end = run_server_session(stream, *service_);
          t_session_stream = nullptr;
        } else {
          end = run_server_session(owned.fd(), *service_);
        }
        const std::lock_guard<std::mutex> lock{mutex_};
        ends_[i] = end;
        ++ended_;
        ended_cv_.notify_all();
      });
    }
  }

  ~Rig() { teardown(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] std::size_t size() const { return clients_.size(); }
  [[nodiscard]] Client& client(std::size_t i) { return clients_[i]; }
  [[nodiscard]] SweepService& service() { return *service_; }
  [[nodiscard]] const std::vector<Span>& spans(std::size_t i) const {
    return spans_[i];
  }
  [[nodiscard]] double journal_bytes() const {
    std::error_code error;
    const auto bytes = fs::file_size(journal_, error);
    return error ? 0.0 : static_cast<double>(bytes);
  }

  /// Sessions that ended other than by their client closing.
  std::size_t teardown() {
    if (torn_down_) return abnormal_ends_;
    torn_down_ = true;
    clients_.clear();  // closes every connection
    {
      std::unique_lock<std::mutex> lock{mutex_};
      if (!ended_cv_.wait_for(lock, kSessionEndBound, [this] {
            return ended_ == sessions_.size();
          })) {
        abort_run("a server session did not end within 10 s of its "
                  "client closing",
                  4);
      }
    }
    for (std::thread& t : sessions_) t.join();
    for (const SessionEnd end : ends_) {
      if (end != SessionEnd::kClientClosed) ++abnormal_ends_;
    }
    service_.reset();
    std::error_code ignored;
    fs::remove(journal_, ignored);
    return abnormal_ends_;
  }

 private:
  fs::path journal_;
  std::unique_ptr<SweepService> service_;
  std::vector<Client> clients_;
  std::vector<std::vector<Span>> spans_;
  std::mutex mutex_;
  std::condition_variable ended_cv_;
  std::vector<SessionEnd> ends_;
  std::size_t ended_{0};
  std::size_t abnormal_ends_{0};
  bool torn_down_{false};
  std::vector<std::thread> sessions_;  // last: joined before the rest dies
};

// ------------------------------------------------------------- driving

struct PhaseResult {
  std::vector<ClientOutcome> clients;
  double elapsed_s{0.0};
  std::vector<bool> clean;  // per whole second: the host stole little
  double steal_share{0.0};
  ServiceStats stats;
  roclk::analysis::SweepMemoStats memo;
  double journal_bytes{0.0};
  std::size_t abnormal_session_ends{0};
};

/// Runs every client's closed loop for `seconds`, then snapshots the
/// service, memo and journal counters.
PhaseResult drive(Rig& rig, Mix mix, StreamKey key, double seconds,
                  bool traced) {
  const HotSet hot{key.split("hot-set")};
  PhaseResult result;
  result.clients.resize(rig.size());
  // One more than the whole seconds: the last requests end after the
  // deadline.
  const auto buckets = static_cast<std::size_t>(std::ceil(seconds)) + 1;
  for (ClientOutcome& out : result.clients) out.seconds.resize(buckets);
  const Clock::time_point start = Clock::now();
  StealMonitor host{start};
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < rig.size(); ++i) {
      threads.emplace_back([&, i] {
        ClientOutcome& out = result.clients[i];
        Client& client = rig.client(i);
        RequestSource source{mix, key.split("client").at(i), &hot};
        CounterRng pick{key.split("verify").at(i)};
        while (Clock::now() < deadline) {
          auto [request, lane_cycles] = source.next();
          const Clock::time_point sent = Clock::now();
          Result<Response> response = client.query(request);
          const Clock::time_point received = Clock::now();
          ++out.attempted;
          const bool ok = response.is_ok() && response.value().ok();
          const double ns =
              ok ? std::chrono::duration<double, std::nano>(received - sent)
                       .count()
                 : kFailedLatencyNs;
          Second& second = out.seconds[std::min(
              buckets - 1,
              static_cast<std::size_t>(seconds_between(start, received)))];
          second.latency.add(ns);
          if (!response.is_ok()) {
            ++out.transport_errors;
            break;  // the connection is unusable after a transport error
          }
          Response& r = response.value();
          if (!r.ok()) {
            ++out.bad_status;
            continue;
          }
          ++out.ok;
          second.ok += 1.0;
          second.lane_cycles += lane_cycles;
          if (traced) {
            out.records.push_back(
                {sent, received, request.kind, r.from_cache, r.coalesced});
            if (out.codec_samples.size() < kCodecSamplesPerClient) {
              out.codec_samples.push_back({request, r});
            }
          }
          // Reservoir sample of the OK responses for verification.
          const std::uint64_t seen = out.ok;
          if (out.reservoir.size() < kVerifyPerClient) {
            out.reservoir.push_back({std::move(request), std::move(r)});
          } else if (const std::uint64_t j = pick.uniform_int(seen);
                     j < kVerifyPerClient) {
            out.reservoir[j] = {std::move(request), std::move(r)};
          }
        }
        out.finished = Clock::now();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  Clock::time_point last = start;
  for (const ClientOutcome& out : result.clients) {
    last = std::max(last, out.finished);
  }
  result.elapsed_s = seconds_between(start, last);
  host.stop();
  for (std::size_t k = 0; k < buckets; ++k) {
    const auto from = static_cast<double>(k);
    result.clean.push_back(host.clean(from, from + 1.0));
  }
  result.steal_share = host.steal_share();
  result.stats = rig.service().stats();
  result.memo = SweepMemo::global().stats();
  result.journal_bytes = rig.journal_bytes();
  return result;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Re-executes every reservoir sample directly, with the analysis memo
/// off, and counts the responses that differ bitwise.
std::uint64_t verify(const PhaseResult& phase, std::uint64_t& checked) {
  SweepMemo& memo = SweepMemo::global();
  memo.set_enabled(false);
  std::uint64_t mismatches = 0;
  for (const ClientOutcome& out : phase.clients) {
    for (const VerifySample& sample : out.reservoir) {
      ++checked;
      const Result<Request> normalized = normalize(sample.request);
      if (!normalized.is_ok()) {
        ++mismatches;
        continue;
      }
      const Response reference = execute(normalized.value(), nullptr);
      if (!reference.ok() || !same_bits(reference.values,
                                        sample.response.values) ||
          sample.response.content_hash != content_hash(normalized.value())) {
        ++mismatches;
      }
    }
  }
  memo.set_enabled(true);
  return mismatches;
}

struct Shape {
  Mix mix;
  std::size_t clients;
};

Shape shape_of(const std::string& workload) {
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  if (workload == "svc_hot") return {Mix::kHot, 2};
  return {Mix::kCold, std::min<std::size_t>(4, nproc)};
}

/// Creates an empty journal file for one service.  The file is made
/// before the service's set-up is timed: creating an inode on the host's
/// disk cost anywhere from 20 to 250 us per process, which swamped the
/// rest of the set-up.  An empty journal holds no records, so the service
/// starts exactly as it would with none (it writes the header itself).
fs::path fresh_journal(const Options& options, const std::string& tag) {
  const fs::path path = fs::path{options.work_dir} / ("journal-" + tag);
  if (std::FILE* file = std::fopen(path.c_str(), "wb")) {
    std::fclose(file);
  } else {
    abort_run("cannot create " + path.string(), 5);
  }
  return path;
}

/// Counts a phase's requests and failures into `report`.
void account(const PhaseResult& phase, std::uint64_t mismatches,
             Report& report) {
  for (const ClientOutcome& out : phase.clients) {
    report.attempted += out.attempted;
    report.failed += out.bad_status + out.transport_errors;
  }
  report.failed += mismatches + phase.abnormal_session_ends;
}

// ------------------------------------------------------------- per layer

double us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Mean nanoseconds per item of `fn` over `items`, repeated for >= 20 ms.
template <class Items, class Fn>
double ns_per_item(const Items& items, Fn&& fn) {
  if (items.empty()) return 0.0;
  std::uint64_t done = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  while (now - start < std::chrono::milliseconds{20}) {
    for (const auto& item : items) fn(item);
    done += items.size();
    now = Clock::now();
  }
  return std::chrono::duration<double, std::nano>(now - start).count() /
         static_cast<double>(done);
}

volatile std::uint64_t g_sink = 0;

void service_layers(const Rig& rig, const PhaseResult& phase,
                    Report& report) {
  Histogram process, overhead, wait_cache, wait_coalesced, wait_sim;
  Histogram exec_corner, exec_grid, exec_yield;
  bool aligned = true;
  std::vector<VerifySample> codec_samples;
  for (std::size_t i = 0; i < phase.clients.size(); ++i) {
    const ClientOutcome& out = phase.clients[i];
    const std::vector<Span>& spans = rig.spans(i);
    // Every OK request produced exactly one response write; a client that
    // saw a failure stops the alignment check from meaning anything.
    if (spans.size() != out.records.size()) aligned = false;
    const std::size_t n = std::min(spans.size(), out.records.size());
    for (std::size_t k = 0; k < n; ++k) {
      const Span& s = spans[k];
      const ClientRecord& c = out.records[k];
      const double process_us = us(s.write_start - s.read_end);
      process.add(process_us * 1e3);
      overhead.add((us(c.received - c.sent) - process_us) * 1e3);
      if (c.from_cache) {
        wait_cache.add(process_us * 1e3);
      } else if (c.coalesced) {
        wait_coalesced.add(process_us * 1e3);
      } else if (s.execute_start != Clock::time_point{}) {
        wait_sim.add(us(s.execute_start - s.read_end) * 1e3);
        const double exec_ns = us(s.write_start - s.execute_start) * 1e3;
        (c.kind == QueryKind::kCornerMargin ? exec_corner
         : c.kind == QueryKind::kGridSweep  ? exec_grid
                                            : exec_yield)
            .add(exec_ns);
      }
    }
    codec_samples.insert(codec_samples.end(), out.codec_samples.begin(),
                         out.codec_samples.end());
  }
  if (!aligned) {
    report.correct = false;
    report.note("trace_error", "server spans and client requests differ");
  }

  const double normalize_hash_ns =
      ns_per_item(codec_samples, [](const VerifySample& s) {
        const Result<Request> n = normalize(s.request);
        g_sink = g_sink + content_hash(n.value());
      });
  const double codec_ns =
      ns_per_item(codec_samples, [](const VerifySample& s) {
        WireWriter request_words;
        encode_request(s.request, request_words);
        WireWriter response_words;
        encode_response(s.response, response_words);
        for (auto [type, words] :
             {std::pair{FrameType::kRequest, &request_words.words},
              std::pair{FrameType::kResponse, &response_words.words}}) {
          const std::vector<std::uint64_t> wire =
              encode_frame(Frame{type, *words});
          Frame decoded;
          g_sink = g_sink + static_cast<std::uint64_t>(
                                decode_frame(wire.data(), wire.size(),
                                             decoded));
          WireReader reader{decoded.payload.data(), decoded.payload.size()};
          if (type == FrameType::kRequest) {
            g_sink = g_sink + decode_request(reader).is_ok();
          } else {
            g_sink = g_sink + decode_response(reader).is_ok();
          }
        }
      });

  const ServiceStats& st = phase.stats;
  const double us_per_ns = 1e-3;
  report.metric("service.transport.overhead_us.p50",
                overhead.quantile(0.5) * us_per_ns, "us");
  report.metric("service.session.process_us.p50",
                process.quantile(0.5) * us_per_ns, "us");
  report.metric("service.session.process_us.p99",
                process.quantile(0.99) * us_per_ns, "us");
  report.metric("service.session.samples",
                static_cast<double>(process.count()), "count");
  report.metric("service.server.wait_us.cache.p50",
                wait_cache.quantile(0.5) * us_per_ns, "us");
  report.metric("service.server.wait_us.cache.p99",
                wait_cache.quantile(0.99) * us_per_ns, "us");
  report.metric("service.server.wait_us.coalesced.p50",
                wait_coalesced.quantile(0.5) * us_per_ns, "us");
  report.metric("service.server.wait_us.coalesced.p99",
                wait_coalesced.quantile(0.99) * us_per_ns, "us");
  report.metric("service.server.wait_us.sim.p50",
                wait_sim.quantile(0.5) * us_per_ns, "us");
  report.metric("service.server.wait_us.sim.p99",
                wait_sim.quantile(0.99) * us_per_ns, "us");
  report.metric("service.server.cache_hit_ratio",
                st.accepted == 0 ? 0.0
                                 : static_cast<double>(st.cache_hits) /
                                       static_cast<double>(st.accepted),
                "ratio");
  report.metric("service.server.coalesced",
                static_cast<double>(st.coalesced), "count");
  report.metric("service.server.simulations",
                static_cast<double>(st.simulations), "count");
  report.metric("service.server.shed", static_cast<double>(st.shed),
                "count");
  report.metric("service.journal.appends",
                static_cast<double>(st.journal_appends), "count");
  report.metric("service.journal.compactions",
                static_cast<double>(st.journal_compactions), "count");
  report.metric("service.journal.bytes", phase.journal_bytes, "bytes");
  report.metric("service.request.normalize_hash_ns", normalize_hash_ns,
                "ns");
  report.metric("service.protocol.codec_ns", codec_ns, "ns");
  report.metric("service.execute.corner_us.p50",
                exec_corner.quantile(0.5) * us_per_ns, "us");
  report.metric("service.execute.grid_us.p50",
                exec_grid.quantile(0.5) * us_per_ns, "us");
  report.metric("service.execute.yield_us.p50",
                exec_yield.quantile(0.5) * us_per_ns, "us");
  const double lookups =
      static_cast<double>(phase.memo.hits + phase.memo.misses);
  report.metric("analysis.sweep_memo.hit_ratio",
                lookups == 0.0 ? 0.0
                               : static_cast<double>(phase.memo.hits) /
                                     lookups,
                "ratio");
  report.metric("analysis.sweep_memo.entries",
                static_cast<double>(phase.memo.entries), "count");
}

double ok_per_second(const PhaseResult& phase) {
  std::uint64_t ok = 0;
  for (const ClientOutcome& out : phase.clients) ok += out.ok;
  return static_cast<double>(ok) / phase.elapsed_s;
}

/// The OK requests, their lane-cycles and the latency of every request
/// completed in the clean seconds of a phase, with those seconds' length.
struct Totals {
  Histogram latency;
  double ok{0.0};
  double lane_cycles{0.0};
  double seconds{0.0};
};

/// Totals over the seconds the host left alone (StealMonitor); over the
/// whole phase when it left none alone.
Totals clean_totals(const PhaseResult& phase) {
  const bool any_clean =
      std::find(phase.clean.begin(), phase.clean.end(), true) !=
      phase.clean.end();
  Totals totals;
  for (std::size_t k = 0; k < phase.clean.size(); ++k) {
    if (any_clean && !phase.clean[k]) continue;
    const auto from = static_cast<double>(k);
    totals.seconds += std::clamp(phase.elapsed_s - from, 0.0, 1.0);
    for (const ClientOutcome& out : phase.clients) {
      const Second& second = out.seconds[k];
      totals.latency.merge(second.latency);
      totals.ok += second.ok;
      totals.lane_cycles += second.lane_cycles;
    }
  }
  return totals;
}

}  // namespace

Report run_service_workload(const Options& options) {
  const Shape shape = shape_of(options.workload);
  const StreamKey key = StreamKey{options.seed}.split(options.workload);
  Report report;
  report.note("clients", static_cast<double>(shape.clients));
  report.note("session_threads", static_cast<double>(shape.clients));
  report.note("sim_pool", "none");

  // A fresh process: the analysis memo must start empty.
  if (SweepMemo::global().stats().entries != 0) {
    abort_run("SweepMemo is not empty at start", 6);
  }

  std::uint64_t checked = 0;
  if (!options.trace) {
    std::unique_ptr<Rig> rig;
    std::size_t rep = 0;
    const SetupTiming setup = time_set_ups(kSetupWindowS, [&] {
      if (rig) rig->teardown();
      const fs::path journal =
          fresh_journal(options, "setup" + std::to_string(rep++));
      const Clock::time_point t0 = Clock::now();
      rig = std::make_unique<Rig>(shape.clients, journal, false);
      return seconds_between(t0, Clock::now());
    });
    reset_peak_rss();
    PhaseResult phase =
        drive(*rig, shape.mix, key, options.seconds, /*traced=*/false);
    const double rss = peak_rss_mb();
    phase.abnormal_session_ends = rig->teardown();
    const std::uint64_t mismatches = verify(phase, checked);
    account(phase, mismatches, report);

    const Totals totals = clean_totals(phase);
    report.metric("throughput_rps", totals.ok / totals.seconds, "1/s");
    report.metric("lane_cycles_per_s", totals.lane_cycles / totals.seconds,
                  "1/s");
    report.metric("latency_p50_us", totals.latency.quantile(0.50) * 1e-3,
                  "us");
    report.metric("latency_p99_us", totals.latency.quantile(0.99) * 1e-3,
                  "us");
    report.metric("ok_rate",
                  static_cast<double>(report.attempted - report.failed) /
                      static_cast<double>(report.attempted),
                  "ratio");
    report.metric("setup_s", setup.median_s, "s");
    report.metric("peak_rss_mb", rss, "MB");
    // What the mix made the layers do, per accepted request.
    const ServiceStats& st = phase.stats;
    const auto per_request = [&](double count) {
      return count / static_cast<double>(std::max<std::uint64_t>(
                         1, st.accepted));
    };
    report.note("share_cache_hit",
                per_request(static_cast<double>(st.cache_hits)));
    report.note("share_coalesced",
                per_request(static_cast<double>(st.coalesced)));
    report.note("share_simulated",
                per_request(static_cast<double>(st.simulations)));
    report.note("memo_hits_per_request",
                per_request(static_cast<double>(phase.memo.hits)));
    report.note("latency_samples",
                static_cast<double>(totals.latency.count()));
    report.note("latency_p90_us", totals.latency.quantile(0.90) * 1e-3);
    report.note("latency_p95_us", totals.latency.quantile(0.95) * 1e-3);
    report.note("setup_reps", static_cast<double>(setup.reps));
    report.note("setup_reps_counted", static_cast<double>(setup.counted));
    report.note("elapsed_s", phase.elapsed_s);
    report.note("host_steal_share", phase.steal_share);
    report.note("clean_s", totals.seconds);
  } else {
    // Untraced then traced, each on a fresh service with the analysis
    // memo emptied and its own request stream (yield seeds included, so
    // the yield worst-path memo cannot carry over either).
    const double half = options.seconds / 2.0;
    SweepMemo::global().clear();
    Rig plain_rig{shape.clients, fresh_journal(options, "untraced"), false};
    PhaseResult plain =
        drive(plain_rig, shape.mix, key.split("untraced"), half, false);
    plain.abnormal_session_ends = plain_rig.teardown();
    std::uint64_t mismatches = verify(plain, checked);
    account(plain, mismatches, report);

    SweepMemo::global().clear();
    Rig traced_rig{shape.clients, fresh_journal(options, "traced"), true};
    PhaseResult traced =
        drive(traced_rig, shape.mix, key.split("traced"), half, true);
    traced.abnormal_session_ends = traced_rig.teardown();
    mismatches = verify(traced, checked);
    account(traced, mismatches, report);

    service_layers(traced_rig, traced, report);
    report.metric("trace.overhead_ratio",
                  ok_per_second(plain) / ok_per_second(traced), "ratio");
  }
  report.note("verified_samples", static_cast<double>(checked));
  report.correct = report.correct && report.failed == 0;
  return report;
}

}  // namespace perfbench
