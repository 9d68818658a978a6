// Canonical-key result cache with single-flight deduplication.
//
// The service's analyses are pure functions of the canonical cache key
// (service/protocol.h), so results can be memoized aggressively:
//   * an LRU map of key -> serialized result, bounded by `capacity`;
//   * SINGLE-FLIGHT: when N identical requests arrive concurrently, the
//     first becomes the leader and computes; the other N-1 block on the
//     in-flight entry and share the leader's result (reported as kWait).
//     Failed computations are NOT cached — every waiter sees the leader's
//     Status, and the next request retries fresh.
// All values are immutable shared_ptr<const string>, so hits are handed
// out without copying under the lock.
#ifndef RSMEM_SERVICE_RESULT_CACHE_H
#define RSMEM_SERVICE_RESULT_CACHE_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "service/protocol.h"

namespace rsmem::service {

// One cached (canonical key, serialized result) pair as it crosses the
// snapshot boundary. Values stay shared_ptr so export/import never copy
// result bodies.
struct SnapshotEntry {
  std::string key;
  std::shared_ptr<const std::string> value;
};

class ResultCache {
 public:
  // capacity = max cached entries (>= 1). 0 disables storage but keeps
  // single-flight deduplication of concurrent identical requests.
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  struct Outcome {
    core::Status status;  // ok iff value is set
    std::shared_ptr<const std::string> value;
    CacheSource source = CacheSource::kMiss;
  };

  // Returns the cached value for `key`, or runs `compute` (outside the
  // lock) as the single-flight leader and publishes its result. Thread-safe.
  Outcome get_or_compute(
      const std::string& key,
      const std::function<core::Result<std::string>()>& compute);

  // Probe without computing: a hit bumps the hit counter and LRU recency
  // and returns the value; a miss returns null WITHOUT counting (a
  // brown-out probe is not a computation). Thread-safe.
  std::shared_ptr<const std::string> lookup(const std::string& key);

  // Direct insert (warm start): replaces an existing entry's value,
  // evicts LRU-style at capacity, and counts one warm_load. Thread-safe.
  void insert(const std::string& key,
              std::shared_ptr<const std::string> value);

  // Every cached entry, least-recently-used FIRST — inserting them back
  // in file order rebuilds the same recency order (the last insert ends
  // up most recent). Thread-safe.
  std::vector<SnapshotEntry> export_entries() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;   // single-flight leaders (computations run)
    std::uint64_t waits = 0;    // deduplicated onto a leader
    std::uint64_t evictions = 0;
    std::uint64_t failures = 0;  // leader computations that returned non-ok
    std::uint64_t warm_loads = 0;  // entries inserted from a snapshot
    std::size_t size = 0;        // entries currently cached
    double hit_rate() const {
      const std::uint64_t served = hits + misses + waits;
      return served == 0 ? 0.0
                         : static_cast<double>(hits + waits) /
                               static_cast<double>(served);
    }
  };
  Stats stats() const;
  void clear();

 private:
  struct Flight {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    core::Status status;
    std::shared_ptr<const std::string> value;
  };
  struct Entry {
    std::shared_ptr<const std::string> value;
    std::list<std::string>::iterator lru_position;
  };

  void insert_locked(const std::string& key,
                     std::shared_ptr<const std::string> value);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
  Stats stats_;
};

// ---------------------------------------------------------------------------
// Crash-safe snapshot files.
//
// Binary format, version 1 (little-endian):
//   "RSMS" magic | u32 version | u64 entry count |
//   count x { u32 key_len, key bytes, u32 value_len, value bytes } |
//   u32 CRC32 of every preceding byte
// write_snapshot_file writes `path + ".tmp"`, fsyncs, then atomically
// renames over `path` — a crash mid-write leaves the previous snapshot
// (or none) intact, never a torn file. read_snapshot_file re-validates
// everything (magic, version, per-field bounds, trailing CRC) and returns
// a typed Status on any mismatch; callers treat every failure as a cold
// start. A missing file is reported with a message containing
// "no snapshot" so boot can distinguish first-run from corruption.
core::Status write_snapshot_file(const std::string& path,
                                 const std::vector<SnapshotEntry>& entries);
core::Result<std::vector<SnapshotEntry>> read_snapshot_file(
    const std::string& path);

// CRC32 (reflected, poly 0xEDB88320) over a byte range; exposed so tests
// can craft deliberately-corrupt snapshots with valid structure.
std::uint32_t snapshot_crc32(const void* data, std::size_t size);

}  // namespace rsmem::service

#endif  // RSMEM_SERVICE_RESULT_CACHE_H
