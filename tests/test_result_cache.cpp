// ResultCache unit tests: LRU behaviour and single-flight deduplication —
// including gated probes where one cache's open flight must neither
// block another cache instance nor leak a failed result.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "service/result_cache.h"

namespace rsmem::service {
namespace {

core::Result<std::string> value_of(const std::string& text) { return text; }

TEST(ResultCache, MissThenHit) {
  ResultCache cache(4);
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return value_of("v1");
  };
  ResultCache::Outcome first = cache.get_or_compute("k1", compute);
  ASSERT_TRUE(first.status.is_ok());
  EXPECT_EQ(*first.value, "v1");
  EXPECT_EQ(first.source, CacheSource::kMiss);
  ResultCache::Outcome second = cache.get_or_compute("k1", compute);
  EXPECT_EQ(second.source, CacheSource::kHit);
  EXPECT_EQ(*second.value, "v1");
  EXPECT_EQ(computes, 1);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultCache, LruEvictionPrefersStaleEntries) {
  ResultCache cache(2);
  (void)cache.get_or_compute("a", [] { return value_of("A"); });
  (void)cache.get_or_compute("b", [] { return value_of("B"); });
  // Touch "a" so "b" is the LRU victim.
  EXPECT_EQ(cache.get_or_compute("a", [] { return value_of("?"); }).source,
            CacheSource::kHit);
  (void)cache.get_or_compute("c", [] { return value_of("C"); });
  EXPECT_EQ(cache.get_or_compute("a", [] { return value_of("A2"); }).source,
            CacheSource::kHit);
  EXPECT_EQ(cache.get_or_compute("b", [] { return value_of("B2"); }).source,
            CacheSource::kMiss);
  EXPECT_EQ(cache.stats().evictions, 2u);  // "b" once, then a victim for "b"
}

TEST(ResultCache, FailuresAreNotCached) {
  ResultCache cache(4);
  ResultCache::Outcome failed = cache.get_or_compute(
      "k", [] { return core::Result<std::string>(
                    core::Status::solver_divergence("boom")); });
  EXPECT_FALSE(failed.status.is_ok());
  EXPECT_EQ(failed.status.code(), core::StatusCode::kSolverDivergence);
  EXPECT_EQ(failed.value, nullptr);
  // The next request retries and can succeed.
  ResultCache::Outcome retried =
      cache.get_or_compute("k", [] { return value_of("fixed"); });
  ASSERT_TRUE(retried.status.is_ok());
  EXPECT_EQ(retried.source, CacheSource::kMiss);
  EXPECT_EQ(*retried.value, "fixed");
  EXPECT_EQ(cache.stats().failures, 1u);
}

TEST(ResultCache, CapacityZeroStillDeduplicates) {
  ResultCache cache(0);
  (void)cache.get_or_compute("k", [] { return value_of("v"); });
  // Nothing stored...
  EXPECT_EQ(cache.stats().size, 0u);
  // ...so a sequential repeat recomputes (miss), but concurrent identical
  // requests still single-flight (exercised below with capacity > 0; here
  // we only pin the storage-off behaviour).
  EXPECT_EQ(cache.get_or_compute("k", [] { return value_of("v"); }).source,
            CacheSource::kMiss);
}

TEST(ResultCache, SingleFlightDeduplicatesConcurrentIdenticalRequests) {
  ResultCache cache(8);
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::atomic<int> inside{0};
  std::barrier gate(kThreads);
  std::vector<ResultCache::Outcome> outcomes(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        gate.arrive_and_wait();  // maximize overlap
        outcomes[i] = cache.get_or_compute("hot", [&] {
          inside.fetch_add(1);
          computes.fetch_add(1);
          // Hold the flight open long enough that peers pile up.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          inside.fetch_sub(1);
          return value_of("computed-once");
        });
      });
    }
    for (auto& thread : threads) thread.join();
  }
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(inside.load(), 0);
  int misses = 0, waits = 0, hits = 0;
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.is_ok());
    ASSERT_NE(outcome.value, nullptr);
    EXPECT_EQ(*outcome.value, "computed-once");
    misses += outcome.source == CacheSource::kMiss;
    waits += outcome.source == CacheSource::kWait;
    hits += outcome.source == CacheSource::kHit;
  }
  EXPECT_EQ(misses, 1);           // exactly one leader
  EXPECT_EQ(waits + hits + misses, kThreads);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.waits + stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

// Single-flight probe with a GATED (not merely slow) compute: the leader
// on cache A blocks until the test releases it, which removes all timing
// slack from the assertions. While A's flight is pinned open, (a)
// concurrent identical requests on A pile onto the one leader — exactly
// one computation runs; (b) a second cache instance B computes the same
// key independently and immediately — caches share no state, so one
// cache's in-flight work never blocks another's.
TEST(ResultCache, SingleFlightBlockingComputeProbe) {
  ResultCache cache_a(8);
  ResultCache cache_b(8);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool leader_entered = false;
  bool release_leader = false;
  std::atomic<int> a_computes{0};

  constexpr int kWaiters = 4;
  std::vector<ResultCache::Outcome> outcomes(kWaiters + 1);
  std::vector<std::thread> threads;
  // Leader + waiters, all asking cache A for the same key.
  for (int i = 0; i <= kWaiters; ++i) {
    threads.emplace_back([&, i] {
      outcomes[i] = cache_a.get_or_compute("shared-key", [&] {
        a_computes.fetch_add(1);
        std::unique_lock<std::mutex> lock(gate_mutex);
        leader_entered = true;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return release_leader; });
        return core::Result<std::string>(std::string("from-cache-a"));
      });
    });
  }
  // Wait until the leader is provably inside its compute (flight open).
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return leader_entered; }));
  }
  // Cache B serves the same canonical key NOW, while A's flight is still
  // pinned open: independent caches, no cross-cache blocking, its own
  // miss.
  const ResultCache::Outcome other_cache =
      cache_b.get_or_compute("shared-key", [] {
        return core::Result<std::string>(std::string("from-cache-b"));
      });
  ASSERT_TRUE(other_cache.status.is_ok());
  EXPECT_EQ(other_cache.source, CacheSource::kMiss);
  EXPECT_EQ(*other_cache.value, "from-cache-b");
  EXPECT_EQ(cache_b.stats().misses, 1u);

  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    release_leader = true;
    gate_cv.notify_all();
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(a_computes.load(), 1);  // one leader, ever
  int misses = 0;
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.is_ok());
    EXPECT_EQ(*outcome.value, "from-cache-a");
    misses += outcome.source == CacheSource::kMiss;
  }
  EXPECT_EQ(misses, 1);
  const ResultCache::Stats stats = cache_a.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.waits, static_cast<std::uint64_t>(kWaiters));
}

// A leader that FAILS while concurrent waiters are parked: every waiter
// sees the leader's typed status, nothing is cached, and the next request
// starts a fresh flight.
TEST(ResultCache, FailedFlightIsNeverCached) {
  ResultCache cache(8);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool leader_entered = false;
  bool release_leader = false;

  constexpr int kWaiters = 3;
  std::barrier start(kWaiters + 1);
  std::vector<ResultCache::Outcome> outcomes(kWaiters + 1);
  std::vector<std::thread> threads;
  for (int i = 0; i <= kWaiters; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();  // everyone races into the same flight
      outcomes[i] = cache.get_or_compute("doomed", [&] {
        std::unique_lock<std::mutex> lock(gate_mutex);
        leader_entered = true;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return release_leader; });
        return core::Result<std::string>(
            core::Status::solver_divergence("deliberate failure"));
      });
    });
  }
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return leader_entered; }));
  }
  // Give the non-leaders time to park on the open flight before the
  // leader is released (same settle idiom as the single-flight test).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    release_leader = true;
    gate_cv.notify_all();
  }
  for (auto& thread : threads) thread.join();

  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.status.code(), core::StatusCode::kSolverDivergence);
    EXPECT_EQ(outcome.value, nullptr);
  }
  EXPECT_EQ(cache.stats().size, 0u);  // the failure was never cached
  EXPECT_EQ(cache.stats().failures, 1u);
  // The next ask is a fresh flight and may succeed.
  const ResultCache::Outcome retried = cache.get_or_compute(
      "doomed", [] { return core::Result<std::string>(std::string("ok")); });
  ASSERT_TRUE(retried.status.is_ok());
  EXPECT_EQ(retried.source, CacheSource::kMiss);
}

TEST(ResultCache, ConcurrentDistinctKeysAllCompute) {
  ResultCache cache(64);
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        const std::string key = "k" + std::to_string(i);
        const auto outcome = cache.get_or_compute(key, [&] {
          computes.fetch_add(1);
          return value_of(key);
        });
        EXPECT_TRUE(outcome.status.is_ok());
        EXPECT_EQ(*outcome.value, key);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  EXPECT_EQ(computes.load(), kThreads);
  EXPECT_EQ(cache.stats().size, static_cast<std::size_t>(kThreads));
}

// ---------------------------------------------------------------------------
// Crash-safe snapshot files (warm start). Format: "RSMS" | u32 version |
// u64 count | entries | u32 CRC32 — every rejection path must be a typed
// Status the server can treat as a cold start, never a crash.

std::string snapshot_test_path(const char* tag) {
  return "/tmp/rsmem-test-snap-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".bin";
}

std::vector<SnapshotEntry> sample_entries() {
  std::vector<SnapshotEntry> entries;
  entries.push_back({"key-a", std::make_shared<const std::string>("1.5")});
  entries.push_back(
      {"key-b", std::make_shared<const std::string>(std::string(5000, 'v'))});
  entries.push_back({"key-c", std::make_shared<const std::string>("")});
  return entries;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class SnapshotFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }
  std::string track(std::string path) {
    cleanup_.push_back(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(SnapshotFileTest, RoundTripPreservesEntriesInOrder) {
  const std::string path = track(snapshot_test_path("roundtrip"));
  const std::vector<SnapshotEntry> entries = sample_entries();
  ASSERT_TRUE(write_snapshot_file(path, entries).is_ok());
  // The atomic-rename protocol must not leave its temp file behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  const auto loaded = read_snapshot_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(loaded.value()[i].key, entries[i].key);
    EXPECT_EQ(*loaded.value()[i].value, *entries[i].value);
  }
}

TEST_F(SnapshotFileTest, EmptySnapshotRoundTrips) {
  const std::string path = track(snapshot_test_path("empty"));
  ASSERT_TRUE(write_snapshot_file(path, {}).is_ok());
  const auto loaded = read_snapshot_file(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST_F(SnapshotFileTest, MissingFileSaysNoSnapshot) {
  // Boot distinguishes first-run (normal) from corruption (reported) by
  // this message; the contract is load-bearing, not cosmetic.
  const auto loaded =
      read_snapshot_file(snapshot_test_path("never-written"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("no snapshot"), std::string::npos)
      << loaded.status().message();
}

TEST_F(SnapshotFileTest, EveryFlippedByteIsRejected) {
  const std::string path = track(snapshot_test_path("flip"));
  std::vector<SnapshotEntry> entries;
  entries.push_back({"k", std::make_shared<const std::string>("v")});
  ASSERT_TRUE(write_snapshot_file(path, entries).is_ok());
  const std::string good = slurp(path);
  ASSERT_FALSE(good.empty());
  // Small file: corrupt EVERY byte position in turn. The CRC (or a bounds
  // check that fires first) must catch each one; none may crash or
  // silently load, and none may masquerade as "no snapshot".
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ 0x40);
    spew(path, bad);
    const auto loaded = read_snapshot_file(path);
    EXPECT_FALSE(loaded.ok()) << "byte " << i << " flip loaded silently";
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().message().find("no snapshot"),
                std::string::npos)
          << loaded.status().message();
    }
  }
}

TEST_F(SnapshotFileTest, EveryTruncationIsRejected) {
  const std::string path = track(snapshot_test_path("trunc"));
  std::vector<SnapshotEntry> entries;
  entries.push_back({"key", std::make_shared<const std::string>("value")});
  ASSERT_TRUE(write_snapshot_file(path, entries).is_ok());
  const std::string good = slurp(path);
  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    spew(path, good.substr(0, keep));
    EXPECT_FALSE(read_snapshot_file(path).ok())
        << "truncation to " << keep << " bytes loaded silently";
  }
}

TEST_F(SnapshotFileTest, WrongMagicAndFutureVersionRejected) {
  const std::string path = track(snapshot_test_path("magic"));
  ASSERT_TRUE(write_snapshot_file(path, sample_entries()).is_ok());
  std::string bytes = slurp(path);
  {
    std::string wrong_magic = bytes;
    wrong_magic[0] = 'X';
    spew(path, wrong_magic);
    EXPECT_FALSE(read_snapshot_file(path).ok());
  }
  {
    // A future format version must be rejected even with a VALID trailing
    // CRC — this is a version check, not a corruption check.
    std::string future = bytes;
    future[4] = 2;  // version u32 little-endian, low byte first
    const std::size_t body = future.size() - 4;
    const std::uint32_t crc = snapshot_crc32(future.data(), body);
    future[body + 0] = static_cast<char>(crc & 0xFF);
    future[body + 1] = static_cast<char>((crc >> 8) & 0xFF);
    future[body + 2] = static_cast<char>((crc >> 16) & 0xFF);
    future[body + 3] = static_cast<char>((crc >> 24) & 0xFF);
    spew(path, future);
    const auto loaded = read_snapshot_file(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().message().find("no snapshot"),
              std::string::npos);
  }
}

TEST_F(SnapshotFileTest, HugeFieldLengthRejectedWithoutAllocating) {
  // count = 1 but key_len = 0xFFFFFF00: a reader that trusted the field
  // would try a ~4 GiB allocation. Bounds-vs-remaining-bytes must fire
  // first (the CRC is valid, so only the bounds check can reject).
  std::string bytes = "RSMS";
  bytes += std::string("\x01\x00\x00\x00", 4);                  // version 1
  bytes += std::string("\x01\x00\x00\x00\x00\x00\x00\x00", 8);  // count 1
  bytes += std::string("\x00\xFF\xFF\xFF", 4);                  // key_len
  const std::uint32_t crc = snapshot_crc32(bytes.data(), bytes.size());
  bytes.push_back(static_cast<char>(crc & 0xFF));
  bytes.push_back(static_cast<char>((crc >> 8) & 0xFF));
  bytes.push_back(static_cast<char>((crc >> 16) & 0xFF));
  bytes.push_back(static_cast<char>((crc >> 24) & 0xFF));
  const std::string path = track(snapshot_test_path("hugefield"));
  spew(path, bytes);
  EXPECT_FALSE(read_snapshot_file(path).ok());
}

TEST_F(SnapshotFileTest, WriteReplacesExistingSnapshotAtomically) {
  const std::string path = track(snapshot_test_path("replace"));
  std::vector<SnapshotEntry> first;
  first.push_back({"old", std::make_shared<const std::string>("1")});
  ASSERT_TRUE(write_snapshot_file(path, first).is_ok());
  std::vector<SnapshotEntry> second;
  second.push_back({"new", std::make_shared<const std::string>("2")});
  ASSERT_TRUE(write_snapshot_file(path, second).is_ok());
  const auto loaded = read_snapshot_file(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].key, "new");
}

TEST(ResultCacheWarmStart, InsertCountsWarmLoadsAndExportRebuildsLru) {
  ResultCache cache(2);
  cache.insert("a", std::make_shared<const std::string>("1"));
  cache.insert("b", std::make_shared<const std::string>("2"));
  EXPECT_EQ(cache.stats().warm_loads, 2u);
  // Warm inserts participate in LRU: a third insert at capacity 2 evicts
  // the least-recent entry, exactly like computed entries.
  cache.insert("c", std::make_shared<const std::string>("3"));
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_EQ(cache.lookup("a"), nullptr);
  ASSERT_NE(cache.lookup("c"), nullptr);
  // export_entries lists least-recently-used first, so replaying the file
  // in order rebuilds the same recency order on the next boot.
  const auto exported = cache.export_entries();
  ASSERT_EQ(exported.size(), 2u);
  EXPECT_EQ(exported.back().key, "c");
}

}  // namespace
}  // namespace rsmem::service
