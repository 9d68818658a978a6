// End-to-end rsmem-serve tests: a real Server on a Unix socket, real
// Clients, concurrent traffic. Pins the headline guarantees:
//   * responses are BIT-IDENTICAL to direct core:: calls for the paper
//     presets (RS(18,16) duplex, RS(36,16) simplex), for every analysis
//     kind, on the first (miss) and the repeated (hit) answer;
//   * concurrent identical requests single-flight (compute once);
//   * admission control rejects with typed kOverloaded, never drops, and
//     brown-out sheds with typed kBrownout;
//   * expired deadlines answer kDeadlineExceeded, both when the
//     dispatcher drains them late and when they expire while queued
//     behind a slow group on a pool worker;
//   * shutdown drains every admitted request.
// The whole file runs under TSan via tools/run_sanitizers.sh (label
// `service`) against both the lock-free and mutex MPMC queue builds.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "core/api.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/scheduler.h"
#include "service/server.h"

namespace rsmem::service {
namespace {

Endpoint test_endpoint(const char* tag) {
  return Endpoint::unix_socket("/tmp/rsmem-test-" + std::string(tag) + "-" +
                               std::to_string(::getpid()) + ".sock");
}

core::MemorySystemSpec paper_duplex_spec() {
  core::MemorySystemSpec spec;
  spec.arrangement = analysis::Arrangement::kDuplex;
  spec.code = {18, 16, 8, 1};
  spec.seu_rate_per_bit_day = 1e-2;
  spec.scrub_period_seconds = 3600.0;
  return spec;
}

core::MemorySystemSpec paper_simplex_spec() {
  core::MemorySystemSpec spec;
  spec.arrangement = analysis::Arrangement::kSimplex;
  spec.code = {36, 16, 8, 1};
  spec.seu_rate_per_bit_day = 1.7e-5;
  spec.erasure_rate_per_symbol_day = 1e-4;
  return spec;
}

std::vector<double> result_doubles(const Response& response,
                                   const char* field) {
  const auto parsed = Json::parse(response.result_json);
  EXPECT_TRUE(parsed.ok()) << response.result_json;
  if (!parsed.ok()) return {};
  auto values = parsed.value().doubles_at(field);
  EXPECT_TRUE(values.ok()) << field;
  return values.ok() ? std::move(values).value() : std::vector<double>{};
}

void expect_bit_identical(const std::vector<double>& service_values,
                          const std::vector<double>& direct_values,
                          const char* what) {
  ASSERT_EQ(service_values.size(), direct_values.size()) << what;
  for (std::size_t i = 0; i < direct_values.size(); ++i) {
    // EXPECT_EQ on doubles is exact comparison: bit-identity, not epsilon.
    EXPECT_EQ(service_values[i], direct_values[i])
        << what << " diverges at index " << i;
  }
}

TEST(ServiceE2E, BerResponsesBitIdenticalToDirectCalls) {
  ServerConfig config;
  config.endpoint = test_endpoint("diff");
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();

  auto client = Client::connect(server->endpoint());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  const std::vector<double> times = {0.0, 12.0, 24.0, 48.0};
  for (const core::MemorySystemSpec& spec :
       {paper_duplex_spec(), paper_simplex_spec()}) {
    Request request;
    request.kind = RequestKind::kBer;
    request.spec = spec;
    request.times_hours = times;
    auto response = client.value().call(request);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    ASSERT_TRUE(response.value().status.is_ok())
        << response.value().status.to_string();

    const models::BerCurve direct = rsmem::analyze_ber(spec, times);
    expect_bit_identical(result_doubles(response.value(), "fail_probability"),
                         direct.fail_probability, "P_fail");
    expect_bit_identical(result_doubles(response.value(), "ber"), direct.ber,
                         "BER");
    expect_bit_identical(result_doubles(response.value(), "times_hours"),
                         direct.times_hours, "times");

    // Second ask: served from cache, still the same bytes.
    auto cached = client.value().call(request);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached.value().cache, CacheSource::kHit);
    EXPECT_EQ(cached.value().result_json, response.value().result_json);
  }
  server->shutdown();
}

TEST(ServiceE2E, SweepAndMttfBitIdenticalToDirectCalls) {
  ServerConfig config;
  config.endpoint = test_endpoint("sweep");
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();
  auto client = Client::connect(server->endpoint());
  ASSERT_TRUE(client.ok());

  Request request;
  request.kind = RequestKind::kSweep;
  request.spec = paper_duplex_spec();
  request.sweep_param = "tsc";
  request.sweep_values = {600.0, 1800.0, 3600.0, 7200.0};
  request.sweep_hours = 48.0;
  auto response = client.value().call(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().status.is_ok())
      << response.value().status.to_string();

  std::vector<double> direct_pfail, direct_ber;
  for (const double value : request.sweep_values) {
    core::MemorySystemSpec spec = request.spec;
    spec.scrub_period_seconds = value;
    const double times[] = {request.sweep_hours};
    const models::BerCurve curve = rsmem::analyze_ber(spec, times);
    direct_pfail.push_back(curve.fail_probability.front());
    direct_ber.push_back(curve.ber.front());
  }
  expect_bit_identical(result_doubles(response.value(), "fail_probability"),
                       direct_pfail, "sweep P_fail");
  expect_bit_identical(result_doubles(response.value(), "ber"), direct_ber,
                       "sweep BER");

  Request mttf;
  mttf.kind = RequestKind::kMttf;
  mttf.spec = paper_duplex_spec();
  auto mttf_response = client.value().call(mttf);
  ASSERT_TRUE(mttf_response.ok());
  ASSERT_TRUE(mttf_response.value().status.is_ok());
  const auto parsed = Json::parse(mttf_response.value().result_json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().number_or("mttf_hours", -1.0),
            rsmem::mttf_hours(mttf.spec));
  server->shutdown();
}

TEST(ServiceE2E, ConcurrentIdenticalSweepsComputeOnce) {
  ServerConfig config;
  config.endpoint = test_endpoint("flight");
  config.scheduler.threads = 4;
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();

  constexpr int kClients = 8;
  std::vector<std::string> payloads(kClients);
  std::vector<core::Status> statuses(kClients);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        auto client = Client::connect(server->endpoint());
        if (!client.ok()) {
          statuses[i] = client.status();
          return;
        }
        Request request;
        request.kind = RequestKind::kBer;
        request.spec = paper_duplex_spec();
        request.times_hours = {0.0, 24.0, 48.0};
        auto response = client.value().call(request);
        statuses[i] =
            response.ok() ? response.value().status : response.status();
        if (response.ok()) payloads[i] = response.value().result_json;
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(statuses[i].is_ok()) << i << ": " << statuses[i].to_string();
    EXPECT_EQ(payloads[i], payloads[0]) << "client " << i;
  }
  // Single-flight + cache: the chain was computed exactly once.
  const ResultCache::Stats cache = server->cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits + cache.waits, static_cast<std::uint64_t>(kClients - 1));
  server->shutdown();
}

// Bare socket, no Client: lets a test send a frame and vanish without
// waiting for the response.
int raw_connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(ServiceE2E, SurvivesClientGoneBeforeResponse) {
  // A client that submits an analysis request and disconnects before the
  // scheduler worker writes the response makes that write hit a closed
  // socket. It must surface as an EPIPE Status, not a SIGPIPE that kills
  // the daemon (which lives in this test process).
  ServerConfig config;
  config.endpoint = test_endpoint("gone");
  config.scheduler.threads = 1;
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();

  for (int i = 0; i < 3; ++i) {
    const int fd = raw_connect_unix(server->endpoint().path);
    ASSERT_GE(fd, 0);
    Request request;
    request.id = 1;
    request.kind = RequestKind::kBer;
    request.spec = paper_duplex_spec();
    // Distinct times => distinct cache keys => real compute after close.
    request.times_hours = {24.0 + i};
    ASSERT_TRUE(write_frame(fd, request.to_json()).is_ok());
    ::close(fd);
  }

  // The daemon is still alive: a fresh client gets answers.
  auto client = Client::connect(server->endpoint());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  Request ping;
  ping.kind = RequestKind::kPing;
  auto response = client.value().call(ping);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_TRUE(response.value().status.is_ok());

  server->shutdown();  // drains the three orphaned requests
  EXPECT_EQ(server->scheduler_stats().completed, 3u);
}

TEST(ServiceE2E, ReapsDisconnectedClients) {
  // Connection churn must not accumulate fds or threads: each
  // disconnected client is reaped when its reader sees EOF, not hoarded
  // until shutdown.
  ServerConfig config;
  config.endpoint = test_endpoint("churn");
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();

  const auto ping_once = [&] {
    auto client = Client::connect(server->endpoint());
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    Request ping;
    ping.kind = RequestKind::kPing;
    ASSERT_TRUE(client.value().call(ping).ok());
  };

  // Settle lazily-created fds before taking the baseline.
  ping_once();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::size_t baseline = open_fd_count();
  ASSERT_GT(baseline, 0u);

  for (int i = 0; i < 32; ++i) ping_once();  // each closes on scope exit

  bool reaped = false;
  for (int i = 0; i < 250 && !reaped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    reaped = open_fd_count() <= baseline + 2;
  }
  EXPECT_TRUE(reaped) << open_fd_count() << " open fds vs baseline "
                      << baseline;
  server->shutdown();
}

TEST(ServiceE2E, ControlPlaneAndErrors) {
  ServerConfig config;
  config.endpoint = test_endpoint("ctl");
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok());
  auto& server = started.value();
  auto client = Client::connect(server->endpoint());
  ASSERT_TRUE(client.ok());

  Request ping;
  ping.kind = RequestKind::kPing;
  auto response = client.value().call(ping);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().status.is_ok());
  EXPECT_NE(response.value().result_json.find(rsmem::version()),
            std::string::npos);

  // An invalid spec comes back as a typed InvalidConfig response.
  Request bad;
  bad.kind = RequestKind::kMttf;
  bad.spec = paper_duplex_spec();
  bad.spec.code.k = bad.spec.code.n;  // k must be < n
  response = client.value().call(bad);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status.code(), core::StatusCode::kInvalidConfig);

  Request stats;
  stats.kind = RequestKind::kStats;
  response = client.value().call(stats);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().status.is_ok());
  const auto parsed = Json::parse(response.value().result_json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed.value().find("scheduler"), nullptr);
  EXPECT_NE(parsed.value().find("cache"), nullptr);

  // Shutdown over the wire; the server acknowledges, then tears down.
  Request shutdown;
  shutdown.kind = RequestKind::kShutdown;
  response = client.value().call(shutdown);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().status.is_ok());
  EXPECT_TRUE(server->wait_for_shutdown(std::chrono::seconds(5)));
  server->shutdown();
  // The socket file is gone after an orderly shutdown.
  EXPECT_NE(::access(server->endpoint().path.c_str(), F_OK), 0);
}

// ---------------------------------------------------------------------------
// The mixed-workload differential: every analysis kind over both paper
// presets, answered byte-identically on the miss and on the hit, and
// equal to direct core:: calls. (The test name predates the single
// scheduler behind the server.)

TEST(ShardRouting, ShardedAndUnshardedServersAnswerByteIdentically) {
  ServerConfig config;
  config.endpoint = test_endpoint("mix");
  config.scheduler.threads = 2;
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();
  auto client = Client::connect(server->endpoint());
  ASSERT_TRUE(client.ok());

  // The request mix: both paper presets, all three analysis kinds.
  std::vector<Request> mix;
  {
    Request ber_duplex;
    ber_duplex.kind = RequestKind::kBer;
    ber_duplex.spec = paper_duplex_spec();
    ber_duplex.times_hours = {0.0, 12.0, 24.0, 48.0};
    mix.push_back(ber_duplex);
    Request ber_simplex = ber_duplex;
    ber_simplex.spec = paper_simplex_spec();
    mix.push_back(ber_simplex);
    Request ber_periodic = ber_duplex;
    ber_periodic.periodic = true;
    mix.push_back(ber_periodic);
    Request sweep;
    sweep.kind = RequestKind::kSweep;
    sweep.spec = paper_duplex_spec();
    sweep.sweep_param = "tsc";
    sweep.sweep_values = {600.0, 1800.0, 3600.0, 7200.0};
    sweep.sweep_hours = 48.0;
    mix.push_back(sweep);
    Request mttf_duplex;
    mttf_duplex.kind = RequestKind::kMttf;
    mttf_duplex.spec = paper_duplex_spec();
    mix.push_back(mttf_duplex);
    Request mttf_simplex = mttf_duplex;
    mttf_simplex.spec = paper_simplex_spec();
    mix.push_back(mttf_simplex);
  }

  // Two passes: pass 0 computes (misses), pass 1 is served from the
  // cache. Both passes must carry the same bytes.
  std::vector<std::string> first_pass;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      auto response = client.value().call(mix[i]);
      ASSERT_TRUE(response.ok()) << response.status().to_string();
      ASSERT_TRUE(response.value().status.is_ok())
          << response.value().status.to_string();
      if (pass == 0) {
        EXPECT_EQ(response.value().cache, CacheSource::kMiss) << i;
        first_pass.push_back(response.value().result_json);
      } else {
        EXPECT_EQ(response.value().cache, CacheSource::kHit)
            << "request " << i << ": cache missed on replay";
        EXPECT_EQ(response.value().result_json, first_pass[i])
            << "request " << i << ": hit differs from the miss";
      }
    }
  }

  // Every answer against its direct core:: call: the wire adds nothing
  // and removes nothing.
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const Request& request = mix[i];
    Response served;
    served.result_json = first_pass[i];
    if (request.kind == RequestKind::kMttf) {
      const auto parsed = Json::parse(served.result_json);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(parsed.value().number_or("mttf_hours", -1.0),
                rsmem::mttf_hours(request.spec))
          << "request " << i;
      continue;
    }
    models::BerCurve direct;
    if (request.kind == RequestKind::kSweep) {
      // The mix sweeps tsc: one single-time analyze_ber per value.
      for (const double value : request.sweep_values) {
        core::MemorySystemSpec spec = request.spec;
        spec.scrub_period_seconds = value;
        const double times[] = {request.sweep_hours};
        const models::BerCurve point = rsmem::analyze_ber(spec, times);
        direct.fail_probability.push_back(point.fail_probability.front());
        direct.ber.push_back(point.ber.front());
      }
    } else if (request.periodic) {
      direct = rsmem::analyze_ber_periodic_scrub(request.spec,
                                                 request.times_hours);
    } else {
      direct = rsmem::analyze_ber(request.spec, request.times_hours);
    }
    expect_bit_identical(result_doubles(served, "fail_probability"),
                         direct.fail_probability, "mix P_fail");
    expect_bit_identical(result_doubles(served, "ber"), direct.ber,
                         "mix BER");
  }

  // Every distinct key computed exactly once.
  Request stats;
  stats.kind = RequestKind::kStats;
  auto stats_response = client.value().call(stats);
  ASSERT_TRUE(stats_response.ok());
  ASSERT_TRUE(stats_response.value().status.is_ok());
  const auto parsed = Json::parse(stats_response.value().result_json);
  ASSERT_TRUE(parsed.ok());
  const Json& json = parsed.value();
  EXPECT_EQ(json.string_or("queue_backend", ""), kQueueBackendName);
  const Json* cache = json.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->number_or("misses", -1.0),
            static_cast<double>(mix.size()));

  server->shutdown();
}

// Scheduler-level behaviours that need precise control (no sockets).

TEST(SchedulerAdmission, RejectsWithTypedOverloadWhenQueueFull) {
  SchedulerConfig config;
  config.threads = 1;
  config.max_queue = 2;
  config.batch_max = 1;
  AnalysisScheduler scheduler(config);

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t completed = 0;
  const auto on_done = [&](Response) {
    std::lock_guard<std::mutex> lock(mutex);
    ++completed;
    cv.notify_all();
  };

  Request request;
  request.kind = RequestKind::kBer;
  request.spec = paper_duplex_spec();
  request.times_hours = {0.0, 24.0, 48.0};

  // Flood far beyond the queue bound; every submission either succeeds or
  // is rejected with a typed status — kOverloaded when the ring is full,
  // kBrownout once the in-flight watermark trips — never anything
  // untyped, never dropped.
  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 200; ++i) {
    Request variant = request;
    variant.id = static_cast<std::uint64_t>(i + 1);
    // Distinct times => distinct cache keys => real work per request.
    variant.times_hours.back() += static_cast<double>(i);
    const core::Status status = scheduler.submit(variant, on_done);
    if (status.is_ok()) {
      ++accepted;
    } else {
      ASSERT_TRUE(status.code() == core::StatusCode::kOverloaded ||
                  status.code() == core::StatusCode::kBrownout)
          << status.to_string();
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return completed == accepted; }));
  }
  const AnalysisScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.rejected_overload + stats.brownout_shed, rejected);
  EXPECT_EQ(stats.completed, accepted);
  scheduler.stop();
  // With max_queue=2 a 200-deep flood must have tripped admission.
  EXPECT_GT(rejected, 0u);
}

TEST(SchedulerDeadlines, ExpiredDeadlineAnswersTyped) {
  SchedulerConfig config;
  config.threads = 1;
  AnalysisScheduler scheduler(config);
  Request request;
  request.kind = RequestKind::kMttf;
  request.spec = paper_duplex_spec();
  // A deadline that has effectively already expired when the dispatcher
  // reaches it (sub-microsecond).
  request.deadline_ms = 1e-9;

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Response final_response;
  const core::Status status =
      scheduler.submit(request, [&](Response response) {
        std::lock_guard<std::mutex> lock(mutex);
        final_response = std::move(response);
        done = true;
        cv.notify_all();
      });
  ASSERT_TRUE(status.is_ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; }));
  }
  EXPECT_EQ(final_response.status.code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(final_response.result_json.empty());
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);
}

TEST(SchedulerDeadlines, DeadlineExpiringInQueueAnswersTypedNotLate) {
  // The dispatch-time check alone is not enough: a request can pass it,
  // then sit on the single worker's queue behind a slow group while its
  // deadline runs out. The worker re-checks at dequeue, so the victim
  // gets kDeadlineExceeded — never a late success.
  SchedulerConfig config;
  config.threads = 1;
  config.batch_max = 16;
  AnalysisScheduler scheduler(config);

  std::mutex mutex;
  std::condition_variable cv;
  bool blocker_done = false, victim_done = false;
  Response victim_response;

  // Blocker: a wide scrub-period sweep on the duplex chain. Each value is
  // ~50us of solver work even with warm chain replay, so 4096 values keep
  // the only worker busy for hundreds of milliseconds — over 20x the
  // victim's deadline, and a slow machine only widens the margin.
  Request blocker;
  blocker.kind = RequestKind::kSweep;
  blocker.spec = paper_duplex_spec();
  blocker.sweep_param = "tsc";
  blocker.sweep_hours = 48.0;
  for (int i = 0; i < 4096; ++i) {
    blocker.sweep_values.push_back(600.0 + 1.0 * i);
  }
  ASSERT_TRUE(scheduler
                  .submit(blocker,
                          [&](Response) {
                            std::lock_guard<std::mutex> lock(mutex);
                            blocker_done = true;
                            cv.notify_all();
                          })
                  .is_ok());
  // Let the dispatcher hand the blocker to the (only) worker before the
  // victim is even submitted, so the worker-queue ordering is fixed.
  for (int i = 0; i < 2000 && scheduler.stats().batch_groups == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(scheduler.stats().batch_groups, 1u);

  // Victim: a different compatibility group (simplex), with a deadline
  // that is alive at dispatch but dead long before the blocker finishes.
  Request victim;
  victim.kind = RequestKind::kMttf;
  victim.spec = paper_simplex_spec();
  victim.deadline_ms = 10.0;
  ASSERT_TRUE(scheduler
                  .submit(victim,
                          [&](Response response) {
                            std::lock_guard<std::mutex> lock(mutex);
                            victim_response = std::move(response);
                            victim_done = true;
                            cv.notify_all();
                          })
                  .is_ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return blocker_done && victim_done; }));
  }
  EXPECT_EQ(victim_response.status.code(),
            core::StatusCode::kDeadlineExceeded)
      << victim_response.status.to_string();
  EXPECT_TRUE(victim_response.result_json.empty());
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);
  // The rejection was never cached: a fresh ask computes and succeeds.
  Request retry = victim;
  retry.deadline_ms = 0.0;
  const Response fresh = scheduler.execute(retry);
  EXPECT_TRUE(fresh.status.is_ok()) << fresh.status.to_string();
  EXPECT_EQ(fresh.cache, CacheSource::kMiss);
  scheduler.stop();
}

TEST(SchedulerBatching, CompatibilityKeysGroupChainStructures) {
  Request a;
  a.kind = RequestKind::kBer;
  a.spec = paper_duplex_spec();
  a.times_hours = {1.0};
  Request b = a;
  b.spec.seu_rate_per_bit_day = 5e-3;  // different magnitude, same structure
  b.times_hours = {2.0};
  EXPECT_EQ(batch_compatibility_key(a), batch_compatibility_key(b));

  Request c = a;
  c.spec.seu_rate_per_bit_day = 0.0;  // different rate zero-pattern
  EXPECT_NE(batch_compatibility_key(a), batch_compatibility_key(c));
  Request d = a;
  d.spec.arrangement = analysis::Arrangement::kSimplex;
  EXPECT_NE(batch_compatibility_key(a), batch_compatibility_key(d));
  Request e = a;
  e.spec.code.n = 36;
  EXPECT_NE(batch_compatibility_key(a), batch_compatibility_key(e));
}

TEST(SchedulerShutdown, StopDrainsEveryAdmittedRequest) {
  SchedulerConfig config;
  config.threads = 2;
  AnalysisScheduler scheduler(config);
  std::atomic<int> answered{0};
  constexpr int kRequests = 24;
  int accepted = 0;
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.kind = RequestKind::kBer;
    request.spec = paper_duplex_spec();
    request.times_hours = {static_cast<double>(i + 1)};
    if (scheduler
            .submit(request, [&](Response) { answered.fetch_add(1); })
            .is_ok()) {
      ++accepted;
    }
  }
  scheduler.stop();  // drain-and-stop: every admitted request answered
  EXPECT_EQ(answered.load(), accepted);
  EXPECT_EQ(accepted, kRequests);
  // After stop, admission rejects with a typed status.
  Request late;
  late.kind = RequestKind::kMttf;
  late.spec = paper_duplex_spec();
  const core::Status status = scheduler.submit(late, [](Response) {});
  EXPECT_EQ(status.code(), core::StatusCode::kOverloaded);
}

TEST(ServiceLoadgen, SelfHostedRunMeetsCacheTargets) {
  LoadgenConfig config;
  config.self_host = true;
  config.clients = 8;
  config.requests_per_client = 12;
  config.distinct = 3;
  config.scheduler.threads = 2;
  config.request.kind = RequestKind::kSweep;
  config.request.spec = paper_duplex_spec();
  config.request.sweep_param = "tsc";
  config.request.sweep_values = {600.0, 1800.0, 3600.0};
  config.request.sweep_hours = 48.0;
  auto ran = run_loadgen(config);
  ASSERT_TRUE(ran.ok()) << ran.status().to_string();
  const LoadgenReport& report = ran.value();
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.requests,
            static_cast<std::size_t>(config.clients) *
                config.requests_per_client);
  // The acceptance bar: a repeated sweep from 8 concurrent clients runs
  // mostly hot. 3 distinct keys over 96 requests => >= 93 hits/waits.
  EXPECT_GT(report.hit_rate, 0.5);
  EXPECT_GT(report.p50_ms, 0.0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
  EXPECT_FALSE(report.server_stats_json.empty());
  // JSON snapshot is parseable and carries the headline metrics.
  const auto snapshot = Json::parse(loadgen_report_json(config, report));
  ASSERT_TRUE(snapshot.ok());
  EXPECT_NE(snapshot.value().find("latency_ms"), nullptr);
  EXPECT_NE(snapshot.value().find("cache"), nullptr);
  EXPECT_NE(snapshot.value().find("hot_query_speedup"), nullptr);
}

TEST(ServiceLoadgen, OpenLoopShardedRunAccountsForEveryRequest) {
  LoadgenConfig config;
  config.self_host = true;
  config.open_loop = true;
  config.clients = 4;
  config.requests_per_client = 10;
  config.distinct = 2;
  config.scheduler.threads = 2;
  config.scheduler.max_queue = 256;  // roomy: no rejections expected
  config.request.kind = RequestKind::kSweep;
  config.request.spec = paper_duplex_spec();
  config.request.sweep_param = "tsc";
  config.request.sweep_values = {600.0, 3600.0};
  config.request.sweep_hours = 48.0;
  auto ran = run_loadgen(config);
  ASSERT_TRUE(ran.ok()) << ran.status().to_string();
  const LoadgenReport& report = ran.value();
  // Open loop accounts for every request exactly once: ok + rejected +
  // errors covers the whole offered load, and with a roomy queue nothing
  // is rejected or lost.
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.requests,
            static_cast<std::size_t>(config.clients) *
                config.requests_per_client);
  EXPECT_GT(report.offered_rps, 0.0);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_FALSE(report.server_stats_json.empty());
}

// Deliberate overload: 1 worker, a queue of 1 and a flood of distinct
// keys pipelined flat-out. Every sent request lands in exactly one of
// requests / rejected / shed, and `errors` stays zero.
LoadgenConfig overload_config() {
  LoadgenConfig config;
  config.self_host = true;
  config.open_loop = true;
  config.clients = 4;
  config.requests_per_client = 16;
  config.distinct = 64;  // (clients + i) spread: nearly all keys distinct
  config.scheduler.threads = 1;
  config.scheduler.max_queue = 1;
  config.request.kind = RequestKind::kBer;
  config.request.spec = paper_duplex_spec();
  config.request.times_hours = {24.0, 48.0};
  return config;
}

TEST(ServiceLoadgen, OpenLoopOverloadCountsRejectionsNotErrors) {
  // Brown-out off: the full queue is the only relief valve, and its typed
  // kOverloaded rejections file under `rejected`.
  LoadgenConfig config = overload_config();
  config.scheduler.brownout_enabled = false;
  auto ran = run_loadgen(config);
  ASSERT_TRUE(ran.ok()) << ran.status().to_string();
  const LoadgenReport& report = ran.value();
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.requests + report.rejected + report.shed,
            static_cast<std::size_t>(config.clients) *
                config.requests_per_client);
}

TEST(ServiceLoadgen, OpenLoopOverloadCountsShedsNotErrors) {
  // Brown-out on (the default): it engages before the queue bound, and
  // its typed kBrownout sheds file under `shed`.
  const LoadgenConfig config = overload_config();
  auto ran = run_loadgen(config);
  ASSERT_TRUE(ran.ok()) << ran.status().to_string();
  const LoadgenReport& report = ran.value();
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.shed, 0u);
  EXPECT_EQ(report.requests + report.rejected + report.shed,
            static_cast<std::size_t>(config.clients) *
                config.requests_per_client);
}

TEST(ServiceLoadgen, MttfMixReportsOneDistinctKey) {
  // variant_of cannot vary an mttf request, so however many distinct keys
  // were asked for, the report states the one the mix really had.
  LoadgenConfig config;
  config.self_host = true;
  config.clients = 2;
  config.requests_per_client = 4;
  config.distinct = 4;
  config.scheduler.threads = 1;
  config.request.kind = RequestKind::kMttf;
  config.request.spec = paper_duplex_spec();
  auto ran = run_loadgen(config);
  ASSERT_TRUE(ran.ok()) << ran.status().to_string();
  const LoadgenReport& report = ran.value();
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.misses, 1u);  // one key, computed once
  const auto snapshot = Json::parse(loadgen_report_json(config, report));
  ASSERT_TRUE(snapshot.ok());
  const Json* echoed = snapshot.value().find("config");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(echoed->number_or("distinct", 0.0), 1.0);
  const std::string table = format_loadgen_report(config, report);
  const std::size_t row = table.find("| distinct keys");
  ASSERT_NE(row, std::string::npos) << table;
  const std::string line = table.substr(row, table.find('\n', row) - row);
  EXPECT_NE(line.find("| 1 "), std::string::npos) << line;

  // The other kinds vary the horizon, so they keep the requested count.
  config.request.kind = RequestKind::kBer;
  config.request.times_hours = {24.0};
  const auto ber = Json::parse(loadgen_report_json(config, report));
  ASSERT_TRUE(ber.ok());
  EXPECT_EQ(ber.value().find("config")->number_or("distinct", 0.0), 4.0);
}

TEST(ServiceLoadgen, RejectsNonsenseConfigs) {
  LoadgenConfig config;
  config.clients = 0;
  EXPECT_EQ(run_loadgen(config).status().code(),
            core::StatusCode::kInvalidConfig);
  config.clients = 1;
  config.requests_per_client = 1;
  config.request.kind = RequestKind::kPing;  // not an analysis kind
  EXPECT_EQ(run_loadgen(config).status().code(),
            core::StatusCode::kInvalidConfig);
  config.request.kind = RequestKind::kSweep;
  config.request.spec = paper_duplex_spec();
  config.request.sweep_param = "tsc";
  config.request.sweep_values = {600.0};
  config.arrival_rate_rps = -1.0;
  EXPECT_EQ(run_loadgen(config).status().code(),
            core::StatusCode::kInvalidConfig);
}

}  // namespace
}  // namespace rsmem::service
