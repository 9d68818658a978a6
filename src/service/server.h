// rsmem-serve: the long-running analysis daemon.
//
// One listening socket (Unix or TCP), one reader thread per connection,
// and one AnalysisScheduler behind them (service/scheduler.h: bounded
// pending ring, dispatcher, worker pool, single-flight ResultCache). The
// server splits the protocol into two planes:
//   * CONTROL (ping / stats / shutdown): answered inline by the reader
//     thread — never queued, never subject to admission control, so a
//     saturated service still answers health checks.
//   * ANALYSIS (ber / mttf / sweep): submitted to the scheduler. A typed
//     kOverloaded or kBrownout rejection is written back immediately;
//     accepted requests are answered asynchronously by the scheduler's
//     workers (responses carry the request id, so one connection may
//     pipeline requests and receive completions out of order).
// Shutdown (kShutdown request, or Server::shutdown()) drains: the
// listener closes, connection read sides shut down, every admitted
// request still completes and its response is flushed, then the sockets
// close. When a snapshot path is configured the drained cache is
// persisted after the drain and reloaded (warm start) on the next boot;
// a torn/corrupt snapshot falls back to a cold start, never a crash.
// See docs/SERVICE.md.
#ifndef RSMEM_SERVICE_SERVER_H
#define RSMEM_SERVICE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/chaos.h"
#include "service/endpoint.h"
#include "service/scheduler.h"

namespace rsmem::service {

struct ServerConfig {
  Endpoint endpoint = Endpoint::unix_socket("/tmp/rsmem-serve.sock");
  SchedulerConfig scheduler;
  int backlog = 64;

  // Frames whose announced length exceeds this are rejected with a typed
  // kInvalidConfig response BEFORE any allocation, then the connection
  // closes (the stream cannot resync past an unread oversized body).
  // Clamped to protocol.h's kMaxFrameBytes.
  std::uint32_t max_frame_bytes = kMaxFrameBytes;

  // Per-connection frame-rate ceiling (token bucket, burst = one second's
  // worth). Frames past the budget are answered with a typed kOverloaded
  // rejection echoing the request id; the connection stays open and in
  // sync. 0 = unlimited.
  double max_frames_per_second = 0.0;

  // Idle-connection reaper: a connection with no frame traffic in either
  // direction for this long has its read side shut down, which makes its
  // reader thread exit and release the fd. 0 = never reap.
  double idle_timeout_ms = 0.0;

  // Cache persistence: when non-empty, boot warm-loads this snapshot
  // (missing/corrupt file => cold start) and shutdown() writes the
  // drained cache back to it (tmp + fsync + atomic rename).
  std::string snapshot_path;

  // Transport fault injection (tests / chaos campaigns). Null = clean
  // transport at the cost of one pointer test per frame.
  std::shared_ptr<chaos::ChaosEngine> chaos;
};

class Server {
 public:
  // Binds, listens, and starts the accept loop. On error (bad endpoint,
  // bind failure) nothing is left running.
  static core::Result<std::unique_ptr<Server>> start(const ServerConfig&);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The endpoint actually bound (ephemeral TCP ports resolved).
  const Endpoint& endpoint() const { return endpoint_; }

  // True once a kShutdown request has been received (or shutdown()
  // called). wait_for blocks up to `poll` for that to happen, so a serve
  // loop can interleave signal checks.
  bool shutdown_requested() const { return shutdown_requested_.load(); }
  bool wait_for_shutdown(std::chrono::milliseconds poll);

  // Orderly teardown: stop accepting, drain the scheduler (every admitted
  // request is answered), flush and close connections. Idempotent; also
  // run by the destructor.
  void shutdown();

  AnalysisScheduler::Stats scheduler_stats() const {
    return scheduler_.stats();
  }
  ResultCache::Stats cache_stats() const { return scheduler_.cache_stats(); }

 private:
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    // Serialized frame writes: scheduler workers and the reader thread
    // may interleave responses on one socket.
    core::Status write_response(const Response& response);
    void touch();  // records frame activity for the idle reaper
    const int fd;
    std::mutex write_mutex;
    // Fault-injection stream for this connection; null = clean transport.
    // The session's write stream is only used under write_mutex, its read
    // stream only by the single reader thread.
    std::unique_ptr<chaos::ChaosSession> chaos;
    std::atomic<std::int64_t> last_activity_ns{0};
    std::atomic<bool> reaped{false};
  };

  Server(ServerConfig config, Endpoint bound, int listen_fd);
  void accept_loop();
  void reaper_loop();
  void serve_connection(std::shared_ptr<Connection> connection);
  void read_requests(const std::shared_ptr<Connection>& connection);
  void handle_request(const std::shared_ptr<Connection>& connection,
                      Request request);
  void join_finished_readers();
  std::string stats_result_json() const;

  const ServerConfig config_;
  const Endpoint endpoint_;
  int listen_fd_;
  AnalysisScheduler scheduler_;

  // Hardening telemetry (stats response).
  std::atomic<std::uint64_t> rate_limited_{0};
  std::atomic<std::uint64_t> oversized_frames_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  // Warm-start outcome; written in the constructor before any thread
  // starts, read-only afterwards.
  std::size_t warm_start_entries_ = 0;
  std::string warm_start_error_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> stopped_{false};
  mutable std::mutex mutex_;
  std::condition_variable shutdown_cv_;
  std::vector<std::shared_ptr<Connection>> connections_;
  // A live reader's thread handle sits in reader_threads_; when the
  // reader exits it moves its own handle to finished_readers_, where the
  // accept loop (or shutdown) joins it. Connections are reaped as they
  // close, not hoarded until shutdown — a churning daemon must not leak
  // one fd + one thread per disconnected client.
  std::unordered_map<const Connection*, std::thread> reader_threads_;
  std::vector<std::thread> finished_readers_;
  std::thread accept_thread_;
  std::thread reaper_thread_;  // only started when idle_timeout_ms > 0
};

}  // namespace rsmem::service

#endif  // RSMEM_SERVICE_SERVER_H
