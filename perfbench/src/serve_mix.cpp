// Workload serve_open_mix: an open-loop, seeded ber/mttf/sweep request mix
// against an `rsmem_cli serve` child at its default settings, over its unix
// socket through service::Client, at a fixed ladder of arrival rates.
//
// Every request ends in exactly one typed outcome (ok, rejected =
// kOverloaded, shed = kBrownout, deadline = kDeadlineExceeded, error), and
// latency is timed from when the request was DUE, so a stalled generator or
// server shows up as latency instead of as a lower offered rate.
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <mutex>
#include <thread>

#include "core/api.h"
#include "core/units.h"
#include "models/ber.h"
#include "perfbench.h"
#include "service/client.h"
#include "service/json.h"
#include "service/scheduler.h"
#include "sim/rng.h"

namespace perfbench {

namespace rsm = rsmem;
namespace svc = rsmem::service;
using rsm::analysis::Arrangement;

namespace {

// Ladder and limits, sized for a 4-core host. The first rung is the
// nominal rate; the ladder stops at the first rung that misses the limit.
constexpr double kNominalRps = 600.0;
constexpr double kLadderRps[] = {kNominalRps, 1200.0, 2400.0, 4800.0,
                                 9600.0};
constexpr double kP99LimitMs = 25.0;
constexpr double kDeadlineMs = 250.0;
constexpr double kMissShare = 0.2;
constexpr unsigned kConnections = 2;  // x (sender + receiver) threads
constexpr std::uint64_t kSentinelId = std::uint64_t{1} << 62;

enum Outcome : int { kOk, kRejected, kShed, kDeadline, kError, kOutcomes };
const char* const kOutcomeNames[kOutcomes] = {"ok", "rejected", "shed",
                                              "deadline", "error"};

enum KeyClass : int {
  kHotBer,
  kHotMttf,
  kHotSweep,
  kMissBer,
  kMissMttf,
  kMissSweep,
  kClasses
};
const char* const kClassNames[kClasses] = {"hot.ber",  "hot.mttf",
                                           "hot.sweep", "miss.ber",
                                           "miss.mttf", "miss.sweep"};

Outcome classify(const rsm::core::Status& status) {
  switch (status.code()) {
    case rsm::core::StatusCode::kOk:
      return kOk;
    case rsm::core::StatusCode::kOverloaded:
      return kRejected;
    case rsm::core::StatusCode::kBrownout:
      return kShed;
    case rsm::core::StatusCode::kDeadlineExceeded:
      return kDeadline;
    default:
      return kError;
  }
}

svc::Request ber_request(const rsm::core::MemorySystemSpec& spec,
                         std::vector<double> times) {
  svc::Request r;
  r.kind = svc::RequestKind::kBer;
  r.spec = spec;
  r.times_hours = std::move(times);
  r.deadline_ms = kDeadlineMs;
  return r;
}

svc::Request mttf_request(const rsm::core::MemorySystemSpec& spec) {
  svc::Request r;
  r.kind = svc::RequestKind::kMttf;
  r.spec = spec;
  r.deadline_ms = kDeadlineMs;
  return r;
}

svc::Request sweep_request(const rsm::core::MemorySystemSpec& spec,
                           std::string param, std::vector<double> values,
                           double hours) {
  svc::Request r;
  r.kind = svc::RequestKind::kSweep;
  r.spec = spec;
  r.sweep_param = std::move(param);
  r.sweep_values = std::move(values);
  r.sweep_hours = hours;
  r.deadline_ms = kDeadlineMs;
  return r;
}

// The request mix: a hot set of paper keys (well under the 256-entry
// result cache) and fresh-rate keys on small RS(18,16) chains.
struct Mix {
  std::vector<svc::Request> hot;
  std::vector<KeyClass> hot_class;

  Mix() {
    const auto h48 = rsm::models::time_grid_hours(48.0, 25);
    const auto m24 =
        rsm::models::time_grid_hours(rsm::core::months_to_hours(24.0), 25);
    std::vector<std::pair<rsm::core::MemorySystemSpec, std::vector<double>>>
        specs;
    const double seus[] = {7.3e-7, 3.6e-6, 1.7e-5};
    const double perms[] = {1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10};
    for (const Arrangement a : {Arrangement::kSimplex, Arrangement::kDuplex}) {
      for (const double seu : seus) {
        specs.push_back({spec_of(a, 18, seu, 0, 0), h48});
      }
      for (const double perm : perms) {
        specs.push_back({spec_of(a, 18, 0, perm, 0), m24});
      }
    }
    for (const double tsc : {900.0, 1200.0, 1800.0, 3600.0}) {
      specs.push_back({spec_of(Arrangement::kDuplex, 18, 1.7e-5, 0, tsc), h48});
    }
    for (const auto& [spec, times] : specs) {
      add(ber_request(spec, times), kHotBer);
      add(mttf_request(spec), kHotMttf);
    }
    const double m24h = rsm::core::months_to_hours(24.0);
    for (const Arrangement a : {Arrangement::kSimplex, Arrangement::kDuplex}) {
      add(sweep_request(spec_of(a, 18, 1.7e-5, 0, 0), "seu",
                        {7.3e-7, 3.6e-6, 1.7e-5}, 48.0),
          kHotSweep);
      add(sweep_request(spec_of(a, 18, 0, 1e-6, 0), "perm",
                        {1e-4, 1e-6, 1e-8, 1e-10}, m24h),
          kHotSweep);
    }
    add(sweep_request(spec_of(Arrangement::kDuplex, 18, 1.7e-5, 0, 1800.0),
                      "tsc", {900.0, 1200.0, 1800.0, 3600.0}, 48.0),
        kHotSweep);
  }

  void add(svc::Request r, KeyClass c) {
    hot.push_back(std::move(r));
    hot_class.push_back(c);
  }

  // A fresh-rate key: its rates are drawn from the seeded stream, so it
  // misses the result cache and replays a cached chain structure.
  static svc::Request fresh(rsm::sim::Rng& rng, KeyClass c) {
    const double jitter = 0.5 + rng.uniform();
    switch (c) {
      case kMissBer:
        return ber_request(spec_of(Arrangement::kDuplex, 18, 1.7e-5 * jitter,
                                   1e-5, 1800.0),
                           rsm::models::time_grid_hours(48.0, 25));
      case kMissMttf:
        return mttf_request(
            spec_of(Arrangement::kDuplex, 18, 1.7e-5, 1e-5 * jitter, 1800.0));
      default:
        return sweep_request(
            spec_of(Arrangement::kSimplex, 36, 1.7e-5, 1e-5, 1800.0), "seu",
            {7.3e-7 * jitter, 3.6e-6 * jitter, 1.7e-5 * jitter,
             3.4e-5 * jitter},
            48.0);
    }
  }

  void draw(rsm::sim::Rng& rng, svc::Request& out, KeyClass& cls) const {
    if (rng.uniform() < kMissShare) {
      cls = static_cast<KeyClass>(kMissBer + rng.uniform_int(3));
      out = fresh(rng, cls);
      return;
    }
    const std::size_t i = rng.uniform_int(hot.size());
    out = hot[i];
    cls = hot_class[i];
  }
};

// The direct in-process result, serialized exactly as the scheduler does.
std::string direct_result_json(const svc::Request& r) {
  const auto curve_json = [](const rsm::models::BerCurve& c) {
    svc::JsonObject o;
    o.emplace("times_hours", svc::Json::from_doubles(c.times_hours));
    o.emplace("fail_probability", svc::Json::from_doubles(c.fail_probability));
    o.emplace("ber", svc::Json::from_doubles(c.ber));
    return svc::Json(std::move(o)).serialize();
  };
  if (r.kind == svc::RequestKind::kBer) {
    return curve_json(rsm::analyze_ber(r.spec, r.times_hours));
  }
  if (r.kind == svc::RequestKind::kMttf) {
    svc::JsonObject o;
    o.emplace("mttf_hours", rsm::mttf_hours(r.spec));
    return svc::Json(std::move(o)).serialize();
  }
  std::vector<double> p, ber;
  for (const double v : r.sweep_values) {
    rsm::core::MemorySystemSpec spec = r.spec;
    if (r.sweep_param == "seu") {
      spec.seu_rate_per_bit_day = v;
    } else if (r.sweep_param == "perm") {
      spec.erasure_rate_per_symbol_day = v;
    } else {
      spec.scrub_period_seconds = v;
    }
    const double t[] = {r.sweep_hours};
    const auto curve = rsm::analyze_ber(spec, t);
    p.push_back(curve.fail_probability.front());
    ber.push_back(curve.ber.front());
  }
  svc::JsonObject o;
  o.emplace("param", r.sweep_param);
  o.emplace("hours", r.sweep_hours);
  o.emplace("values", svc::Json::from_doubles(r.sweep_values));
  o.emplace("fail_probability", svc::Json::from_doubles(p));
  o.emplace("ber", svc::Json::from_doubles(ber));
  return svc::Json(std::move(o)).serialize();
}

// ---------------------------------------------------------------------------
// The serve child process.
class ServeChild {
 public:
  ServeChild(const RunContext& ctx, const std::string& socket)
      : endpoint_(svc::Endpoint::unix_socket(socket)) {
    ::unlink(socket.c_str());
    const std::string log = ctx.workdir + "/serve.log";
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execl(ctx.cli_path.c_str(), ctx.cli_path.c_str(), "serve", "--socket",
              socket.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 20.0) {
      auto client = svc::Client::connect(endpoint_);
      if (client.ok()) {
        svc::Request ping;
        auto pong = client.value().call(ping);
        if (pong.ok() && pong.value().status.is_ok()) return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("serve child exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    kill_and_reap();  // a throwing constructor runs no destructor
    throw std::runtime_error("serve child did not answer a ping in 20 s");
  }
  ServeChild(const ServeChild&) = delete;
  ServeChild& operator=(const ServeChild&) = delete;
  ~ServeChild() { kill_and_reap(); }

  const svc::Endpoint& endpoint() const { return endpoint_; }

  // Orderly shutdown request, then reap; returns the child's peak RSS (MB).
  double stop() {
    if (auto client = svc::Client::connect(endpoint_); client.ok()) {
      svc::Request shutdown;
      shutdown.kind = svc::RequestKind::kShutdown;
      (void)client.value().call(shutdown);
    }
    const auto t0 = Clock::now();
    rusage usage{};
    int status = 0;
    while (::wait4(pid_, &status, WNOHANG, &usage) == 0) {
      if (seconds_since(t0) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status, 0, &usage);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  void kill_and_reap() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  svc::Endpoint endpoint_;
  pid_t pid_ = -1;
};

// One `stats` round trip; returns the scheduler object's field or 0.
double scheduler_stat(const svc::Endpoint& endpoint, const char* field) {
  auto client = svc::Client::connect(endpoint);
  if (!client.ok()) return 0.0;
  svc::Request stats;
  stats.kind = svc::RequestKind::kStats;
  auto response = client.value().call(stats);
  if (!response.ok()) return 0.0;
  auto json = svc::Json::parse(response.value().result_json);
  if (!json.ok()) return 0.0;
  const svc::Json* scheduler = json.value().find("scheduler");
  return scheduler ? scheduler->number_or(field, 0.0) : 0.0;
}

// Sends every hot key once (pipelined on one connection) so the timed
// phase starts with the hot set cached. Returns false unless all were ok.
bool warm_hot_set(const svc::Endpoint& endpoint, const Mix& mix) {
  auto client = svc::Client::connect(endpoint);
  if (!client.ok()) return false;
  for (std::size_t i = 0; i < mix.hot.size(); ++i) {
    svc::Request r = mix.hot[i];
    r.id = i + 1;
    r.deadline_ms = 0.0;
    if (!client.value().send(std::move(r)).ok()) return false;
  }
  bool ok = true;
  for (std::size_t i = 0; i < mix.hot.size(); ++i) {
    auto response = client.value().receive();
    ok = ok && response.ok() && response.value().status.is_ok();
  }
  return ok;
}

// ---------------------------------------------------------------------------
struct Planned {
  double due_s = 0.0;
  KeyClass cls = kHotBer;
  svc::Request request;
};

struct Done {
  Outcome outcome = kError;
  svc::CacheSource source = svc::CacheSource::kNone;
  bool answered = false;
  double latency_ms = 0.0;  // from due time to response
  double lag_ms = 0.0;      // from due time to send
};

// Sampled (request, response payload) pairs per key class.
struct Samples {
  static constexpr std::size_t kPerClass = 2;
  std::mutex mutex;
  std::vector<std::pair<svc::Request, svc::Response>> taken[kClasses];
};

struct Rung {
  double rate = 0.0;
  double duration = 0.0;
  std::vector<Planned> plan;
  std::vector<Done> done;
  std::size_t counts[kOutcomes] = {};
  double goodput = 0.0, p50_ms = 0.0, p99_ms = 0.0, lag_p99_ms = 0.0;
  bool pass = false;
};

// One connection of the generator: a sender thread that sends this lane's
// requests when they are due, and the calling thread receiving responses.
template <typename Due>
void run_lane(RunContext& ctx, const svc::Endpoint& endpoint, Rung& rung,
              unsigned c, const Due& due,
              std::vector<std::atomic<std::int64_t>>& sent_ns,
              Samples& samples, std::uint64_t rung_span_id) {
  const std::size_t total = rung.plan.size();
  auto connected = svc::Client::connect(endpoint);
  if (!connected.ok()) return;
  svc::Client client = std::move(connected).value();
  (void)client.set_receive_timeout(10000.0);
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sending_done{false};
  std::thread sender([&] {
    try {
      for (std::size_t i = c; i < total; i += kConnections) {
        std::this_thread::sleep_until(due(i));
        svc::Request r = rung.plan[i].request;
        r.id = i + 1;
        const auto now = Clock::now();
        rung.done[i].lag_ms =
            std::chrono::duration<double, std::milli>(now - due(i)).count();
        sent_ns[i].store(now_ns(), std::memory_order_relaxed);
        if (!client.send(std::move(r)).ok()) break;
        sent.fetch_add(1);
      }
    } catch (const std::exception& e) {
      std::cout << "sender " << c << " aborted: " << e.what() << "\n";
    }
    sending_done.store(true);
    svc::Request ping;
    ping.id = kSentinelId;
    (void)client.send(std::move(ping));
  });
  std::size_t received = 0;
  bool sentinel = false;
  while (!(sentinel && sending_done.load() && received >= sent.load())) {
    auto response = client.receive();
    if (!response.ok()) {
      client.cancel();  // unblocks a sender stuck on a full socket
      break;
    }
    const auto now = Clock::now();
    svc::Response& resp = response.value();
    if (resp.id == kSentinelId) {
      sentinel = true;
      continue;
    }
    if (resp.id == 0 || resp.id > total) continue;
    const std::size_t i = resp.id - 1;
    Done& d = rung.done[i];
    if (d.answered) continue;
    d.answered = true;
    ++received;
    d.outcome = classify(resp.status);
    d.source = resp.cache;
    d.latency_ms =
        std::chrono::duration<double, std::milli>(now - due(i)).count();
    if (ctx.tracer.enabled()) {
      Span s;
      s.id = ctx.tracer.next_id();
      s.parent = rung_span_id;
      s.request = resp.id;
      s.name = "service.request";
      s.start_ns = sent_ns[i].load(std::memory_order_relaxed);
      s.end_ns = now_ns();
      ctx.tracer.record(s);
    }
    if (d.outcome == kOk) {
      std::lock_guard<std::mutex> lock(samples.mutex);
      auto& taken = samples.taken[rung.plan[i].cls];
      if (taken.size() < Samples::kPerClass) {
        taken.push_back({rung.plan[i].request, std::move(resp)});
      }
    }
  }
  sender.join();
  client.close();
}

void run_rung(RunContext& ctx, const svc::Endpoint& endpoint, const Mix& mix,
              rsm::sim::Rng& rng, Rung& rung, Samples& samples) {
  // Poisson arrivals conditioned on their count: exactly rate x duration
  // requests at sorted uniform times, so the offered load is the same in
  // every run and only the arrival pattern depends on the seed.
  const std::size_t total =
      static_cast<std::size_t>(std::llround(rung.rate * rung.duration));
  std::vector<double> times(total);
  for (double& t : times) t = rng.uniform() * rung.duration;
  std::sort(times.begin(), times.end());
  for (const double t : times) {
    Planned p;
    p.due_s = t;
    mix.draw(rng, p.request, p.cls);
    rung.plan.push_back(std::move(p));
  }
  rung.done.assign(total, {});
  ScopedSpan rung_span(ctx.tracer, "loadgen.rung");
  const std::uint64_t rung_span_id = rung_span.id();
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(rung.plan[i].due_s));
  };
  std::vector<std::thread> threads;
  // Written by a lane's sender, read by its receiver once the response is
  // back: atomics, since the socket round trip is not a C++ happens-before.
  std::vector<std::atomic<std::int64_t>> sent_ns(total);
  for (unsigned c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      // Requests of this lane that never get an answer stay kError.
      try {
        run_lane(ctx, endpoint, rung, c, due, sent_ns, samples, rung_span_id);
      } catch (const std::exception& e) {
        std::cout << "lane " << c << " aborted: " << e.what() << "\n";
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double wall_s = 0.0;  // first due time to last response
  for (const Done& d : rung.done) {
    if (d.answered) {
      wall_s = std::max(wall_s, rung.plan[&d - rung.done.data()].due_s +
                                    d.latency_ms / 1e3);
    }
  }

  std::vector<double> latency, lag;
  latency.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    Done& d = rung.done[i];
    if (!d.answered) d.outcome = kError;
    ++rung.counts[d.outcome];
    // A request that did not succeed counts as missing any latency limit.
    latency.push_back(d.outcome == kOk
                          ? d.latency_ms
                          : std::numeric_limits<double>::infinity());
    lag.push_back(d.lag_ms);
  }
  // Failed requests stand in at the rung's whole duration when a
  // percentile lands on them (a finite value far above any limit).
  const double cap_ms = rung.duration * 1e3;
  const auto finite = [&](double v) { return std::isfinite(v) ? v : cap_ms; };
  rung.p50_ms = finite(quantile(latency, 0.5));
  rung.p99_ms = finite(quantile(latency, 0.99));
  rung.lag_p99_ms = quantile(lag, 0.99);
  // Successful requests per second of wall time, from the first due time
  // to the last response.
  rung.goodput =
      wall_s > 0.0 ? static_cast<double>(rung.counts[kOk]) / wall_s : 0.0;
  // No growing backlog: the last quarter's median latency (by due time)
  // stays within twice the first quarter's plus 1 ms.
  std::vector<double> head, tail;
  for (std::size_t i = 0; i < total; ++i) {
    if (i < total / 4) head.push_back(latency[i]);
    if (i >= total - total / 4) tail.push_back(latency[i]);
  }
  const bool steady =
      finite(median(tail)) <= 2.0 * finite(median(head)) + 1.0;
  rung.pass = total > 0 && rung.p99_ms <= kP99LimitMs && steady;
  std::size_t sum = 0;
  for (const std::size_t c : rung.counts) sum += c;
  ctx.gate(sum == total, "serve: rung " + std::to_string(rung.rate) +
                             " rps: every request ended in exactly one "
                             "typed outcome");
  std::cout << "rung rate=" << rung.rate << " sent=" << total
            << " goodput=" << rung.goodput << " p50_ms=" << rung.p50_ms
            << " p99_ms=" << rung.p99_ms << " lag_p99_ms=" << rung.lag_p99_ms;
  for (int o = 0; o < kOutcomes; ++o) {
    std::cout << " " << kOutcomeNames[o] << "=" << rung.counts[o];
  }
  std::cout << (rung.pass ? " PASS" : " MISS") << "\n";
}

struct Ladder {
  std::vector<Rung> rungs;
  int top_pass = -1;
};

// Fixed rungs up to the first miss, then three bisection rungs (geometric)
// between the last passing and the first missing rate, so the highest
// passing rate is resolved to within a few percent of the rung spacing.
Ladder run_ladder(RunContext& ctx, const svc::Endpoint& endpoint,
                  const Mix& mix, rsm::sim::Rng& rng, Samples& samples,
                  bool nominal_only, double nominal_s, double rung_s) {
  Ladder ladder;
  const auto run_at = [&](double rate, double duration) {
    Rung& rung = ladder.rungs.emplace_back();
    rung.rate = rate;
    rung.duration = duration;
    run_rung(ctx, endpoint, mix, rng, rung, samples);
    ctx.attempted += rung.plan.size();
    ctx.failed += rung.plan.size() - rung.counts[kOk];
    if (rung.pass && (ladder.top_pass < 0 ||
                      rate > ladder.rungs[ladder.top_pass].rate)) {
      ladder.top_pass = static_cast<int>(ladder.rungs.size()) - 1;
    }
    return rung.pass;
  };
  double lo = 0.0, hi = 0.0;
  for (const double rate : kLadderRps) {
    const bool first = ladder.rungs.empty();
    if (!run_at(rate, first ? nominal_s : rung_s)) {
      hi = rate;
      break;
    }
    lo = rate;
    if (nominal_only) return ladder;
  }
  for (int step = 0; step < 3 && lo > 0.0 && hi > 0.0; ++step) {
    const double mid = std::sqrt(lo * hi);
    (run_at(mid, rung_s) ? lo : hi) = mid;
  }
  return ladder;
}

// Byte identity of sampled responses with the direct core:: results.
void gate_samples(RunContext& ctx, Samples& samples) {
  for (int c = 0; c < kClasses; ++c) {
    bool same = true;
    for (const auto& [request, response] : samples.taken[c]) {
      same = same && direct_result_json(request) == response.result_json;
    }
    ctx.gate(same, std::string("serve: ") + kClassNames[c] + ": " +
                       std::to_string(samples.taken[c].size()) +
                       " sampled responses byte-identical to direct core:: "
                       "results");
  }
}

// service.*, protocol.*, scheduler.*, loadgen.* from a finished ladder.
void record_service_layers(RunContext& ctx, const Ladder& ladder,
                           Samples& samples, double max_batch) {
  const Rung& nominal = ladder.rungs.front();
  std::vector<double> hit, miss;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < nominal.done.size(); ++i) {
    const Done& d = nominal.done[i];
    if (d.outcome != kOk) continue;
    ++ok;
    if (d.source == svc::CacheSource::kHit) {
      hit.push_back(d.latency_ms);
    } else {
      miss.push_back(d.latency_ms);
    }
  }
  ctx.metric("service.p99_ms_hit", quantile(hit, 0.99), "ms");
  ctx.metric("service.p99_ms_miss", quantile(miss, 0.99), "ms");
  ctx.metric("service.hit_frac",
             ok ? static_cast<double>(hit.size()) / ok : 0.0, "1");
  std::size_t counts[kOutcomes] = {};
  for (const Rung& r : ladder.rungs) {
    for (int o = 0; o < kOutcomes; ++o) counts[o] += r.counts[o];
  }
  ctx.metric("service.rejected", static_cast<double>(counts[kRejected]),
             "count");
  ctx.metric("service.shed", static_cast<double>(counts[kShed]), "count");
  ctx.metric("service.deadline", static_cast<double>(counts[kDeadline]),
             "count");
  ctx.metric("service.errors", static_cast<double>(counts[kError]), "count");
  ctx.metric("service.max_batch", max_batch, "count");
  ctx.metric("loadgen.lag_p99_ms", nominal.lag_p99_ms, "ms");

  // protocol: to_json + from_json of the workload's own payloads.
  double busy = 0.0;
  std::size_t n = 0;
  {
    ScopedSpan span(ctx.tracer, "protocol.request_roundtrip");
    const auto t0 = Clock::now();
    for (const Planned& p : nominal.plan) {
      const std::string text = p.request.to_json();
      n += svc::Request::from_json(text).ok() ? 1 : 0;
    }
    busy = seconds_since(t0);
  }
  ctx.gate(n == nominal.plan.size(), "protocol: every request round-trips");
  ctx.metric("protocol.request_us", busy * 1e6 / std::max<std::size_t>(n, 1),
             "us");
  std::vector<const svc::Response*> responses;
  for (const auto& taken : samples.taken) {
    for (const auto& pair : taken) responses.push_back(&pair.second);
  }
  n = 0;
  {
    ScopedSpan span(ctx.tracer, "protocol.response_roundtrip");
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 50; ++rep) {
      for (const svc::Response* r : responses) {
        const std::string text = r->to_json();
        n += svc::Response::from_json(text).ok() ? 1 : 0;
      }
    }
    busy = seconds_since(t0);
  }
  ctx.metric("protocol.response_us", busy * 1e6 / std::max<std::size_t>(n, 1),
             "us");

  // scheduler: in-process execute() of fresh miss requests.
  svc::AnalysisScheduler scheduler(svc::SchedulerConfig{});
  rsm::sim::Rng rng(mix_seed(ctx.seed, 61));
  std::vector<double> execute_ms;
  bool executed_ok = true;
  for (int i = 0; i < (ctx.smoke ? 3 : 30); ++i) {
    svc::Request r = Mix::fresh(rng, static_cast<KeyClass>(kMissBer + i % 3));
    ScopedSpan span(ctx.tracer, "scheduler.execute");
    const auto t0 = Clock::now();
    const svc::Response response = scheduler.execute(r);
    execute_ms.push_back(seconds_since(t0) * 1e3);
    executed_ok = executed_ok && response.status.is_ok() &&
                  response.cache == svc::CacheSource::kMiss;
  }
  ctx.gate(executed_ok, "scheduler: every sampled miss executed as a miss");
  ctx.metric("scheduler.execute_ms_miss", median(execute_ms), "ms");
}

double serve_setup(RunContext& ctx, const Mix& mix, const std::string& socket,
                   std::unique_ptr<ServeChild>& keep, int times) {
  std::vector<double> setup;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    auto child = std::make_unique<ServeChild>(ctx, socket);
    ctx.gate(warm_hot_set(child->endpoint(), mix),
             "serve: warm-up answered every hot key");
    setup.push_back(seconds_since(t0));
    if (i + 1 < times) {
      child->stop();
    } else {
      keep = std::move(child);
    }
  }
  return median(setup);
}

}  // namespace

void probe_service_layers(RunContext& ctx) {
  const Mix mix;
  std::unique_ptr<ServeChild> child;
  serve_setup(ctx, mix, ctx.workdir + "/probe.sock", child, 1);
  rsm::sim::Rng rng(mix_seed(ctx.seed, 62));
  Samples samples;
  const std::uint64_t attempted = ctx.attempted, failed = ctx.failed;
  const Ladder ladder = run_ladder(ctx, child->endpoint(), mix, rng, samples,
                                   true, ctx.smoke ? 0.3 : 1.5, 0.0);
  const double max_batch = scheduler_stat(child->endpoint(), "max_batch");
  child->stop();
  gate_samples(ctx, samples);
  record_service_layers(ctx, ladder, samples, max_batch);
  // The probe's requests are layer measurements, not workload operations.
  ctx.attempted = attempted;
  ctx.failed = failed;
}

void run_serve_mix(RunContext& ctx) {
  const Mix mix;
  const std::string socket = ctx.workdir + "/serve.sock";
  std::unique_ptr<ServeChild> child;
  const double setup_s =
      serve_setup(ctx, mix, socket, child, ctx.smoke ? 1 : 5);
  rsm::sim::Rng rng(mix_seed(ctx.seed, 3));
  Samples samples;

  const double budget = ctx.smoke ? 1.0 : ctx.seconds;
  const double nominal_s = std::max(0.3, budget * 0.25);
  const double rung_s = std::max(0.2, budget * 0.1);
  const auto cache_before = rsm::models::global_chain_cache().stats();
  const Ladder ladder = run_ladder(ctx, child->endpoint(), mix, rng, samples,
                                   false, nominal_s, rung_s);
  const double max_batch = scheduler_stat(child->endpoint(), "max_batch");

  double overhead = 0.0;
  if (ctx.trace) {
    // Tracing overhead: closed-loop bursts of hot keys on one connection,
    // alternating untraced and traced (one span per call).
    std::vector<double> untraced, traced;
    auto client = svc::Client::connect(child->endpoint());
    for (int rep = 0; client.ok() && rep < 8; ++rep) {
      const bool traced_rep = rep % 2 == 1;
      ctx.tracer.set_enabled(traced_rep);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < (ctx.smoke ? 50u : 400u); ++i) {
        ScopedSpan span(ctx.tracer, "client.call", i + 1);
        svc::Request r = mix.hot[i % mix.hot.size()];
        r.id = i + 1;
        (void)client.value().call(std::move(r));
      }
      (traced_rep ? traced : untraced).push_back(seconds_since(t0));
    }
    ctx.tracer.set_enabled(true);
    overhead = median(traced) / median(untraced) - 1.0;
  }
  const double peak_rss = child->stop();
  gate_samples(ctx, samples);

  const Rung& nominal = ladder.rungs.front();
  const Rung& top =
      ladder.rungs[ladder.top_pass >= 0 ? ladder.top_pass : 0];
  ctx.note("setup_s", setup_s);
  ctx.note("goodput_rps", nominal.goodput);
  ctx.note("p99_ms", nominal.p99_ms);
  ctx.note("max_rate_rps", top.goodput);
  ctx.note("nominal_rps", nominal.rate);
  ctx.note("nominal_sent", static_cast<double>(nominal.plan.size()));
  ctx.note("failed_frac",
           static_cast<double>(nominal.plan.size() - nominal.counts[kOk]) /
               nominal.plan.size());
  if (!ctx.trace) {
    ctx.metric("setup_s", setup_s, "s");
    ctx.metric("peak_rss_mb", peak_rss, "MB");
    ctx.metric("ok_frac",
               static_cast<double>(nominal.counts[kOk]) / nominal.plan.size(),
               "1");
    ctx.metric("throughput_per_s", nominal.goodput, "1/s");
    ctx.metric("p50_ms", nominal.p50_ms, "ms");
    return;
  }
  ctx.metric("trace.overhead_frac", overhead, "1");
  record_service_layers(ctx, ladder, samples, max_batch);
  record_cache_delta(ctx, cache_before);

  LayerInputs in;
  in.spec = spec_of(Arrangement::kDuplex, 18, 1.7e-5, 0, 1800.0);
  in.hours = 48.0;
  in.solve_times = rsm::models::time_grid_hours(48.0, 25);
  in.observe_trials = ctx.smoke ? 256 : 4096;
  in.memory_trials = 1024;
  probe_codec_layers(ctx, in);
  probe_memory_layers(ctx, in);
  const std::size_t scaling_trials = ctx.smoke ? 1024 : 16384;
  record_campaign_layers(
      ctx, compare_thread_counts(ctx, in, scaling_trials,
                                 mix_seed(ctx.seed, 41)));
  probe_chain_layers(ctx, in);
}

}  // namespace perfbench
