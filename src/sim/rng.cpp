#include "sim/rng.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rsmem::sim {

namespace {

// SplitMix64 finalizer: decorrelates nearby seeds.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : root_seed_(seed) {}

Mt19937_64& Rng::engine() {
  if (!engine_) engine_.emplace(mix(root_seed_));
  return *engine_;
}

Rng Rng::split(std::uint64_t stream_id) const {
  return Rng{mix(root_seed_ ^ mix(stream_id + 1))};
}

void Rng::prime(std::span<Rng* const> streams, std::size_t draws) {
  constexpr std::size_t kGroup = 64;
  Mt19937_64* engines[kGroup];
  for (std::size_t base = 0; base < streams.size(); base += kGroup) {
    const std::size_t count = std::min(kGroup, streams.size() - base);
    for (std::size_t i = 0; i < count; ++i) {
      engines[i] = &streams[base + i]->engine();
    }
    Mt19937_64::seed_lockstep({engines, count}, draws);
  }
}

double Rng::uniform() {
  return static_cast<double>(engine()() >> 11) * 0x1.0p-53;
}

double Rng::uniform_positive() {
  // (0, 1]: complements uniform() which is [0, 1).
  return 1.0 - uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::uniform_int: bound == 0");
  auto& eng = engine();
  if ((bound & (bound - 1)) == 0) {
    // Power-of-two bound: bit-identical to the general path below (for
    // 2^64 mod bound == 0 its limit is 2^64 - bound and x % bound is
    // x & (bound - 1)) without the two 64-bit divisions — this is the
    // symbol-draw path for every power-of-two field (m = 8 included), hot
    // in Monte-Carlo dataword generation.
    const std::uint64_t limit = ~std::uint64_t{0} - (bound - 1);
    std::uint64_t x;
    do {
      x = eng();
    } while (x >= limit);
    return x & (bound - 1);
  }
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t x;
  do {
    x = eng();
  } while (x >= limit);
  return x % bound;
}

void Rng::fill_uniform_int(std::span<std::uint32_t> out,
                           std::uint64_t bound) {
  if (bound == 0 || bound > (std::uint64_t{1} << 32)) {
    throw std::invalid_argument(
        "Rng::fill_uniform_int: bound outside [1, 2^32]");
  }
  if ((bound & (bound - 1)) != 0) {
    for (std::uint32_t& v : out) {
      v = static_cast<std::uint32_t>(uniform_int(bound));
    }
    return;
  }
  // Power-of-two bound: uniform_int's rejection rule on runs of raw draws.
  // Each run draws at most as many words as slots remain, and a rejected
  // word is skipped exactly as uniform_int would skip it, so the engine
  // ends where out.size() uniform_int calls leave it.
  const std::uint64_t limit = ~std::uint64_t{0} - (bound - 1);
  Mt19937_64& eng = engine();
  constexpr std::size_t kRun = 64;
  std::uint64_t raw[kRun];
  std::size_t filled = 0;
  while (filled < out.size()) {
    const std::size_t want = std::min(kRun, out.size() - filled);
    eng.generate(raw, want);
    for (std::size_t i = 0; i < want; ++i) {
      if (raw[i] < limit) {
        out[filled++] = static_cast<std::uint32_t>(raw[i] & (bound - 1));
      }
    }
  }
}

bool Rng::bernoulli(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("Rng::bernoulli: p outside [0,1]");
  }
  return uniform() < p;
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) {
    throw std::invalid_argument("Rng::exponential: rate must be > 0");
  }
  return -std::log(uniform_positive()) / rate;
}

std::uint64_t Rng::poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument("Rng::poisson: negative mean");
  // Chunk large means so the product inversion below never underflows.
  std::uint64_t count = 0;
  while (mean > 500.0) {
    // A Poisson(mean) is the sum of independent Poisson(500) + Poisson(rest).
    count += poisson(500.0);
    mean -= 500.0;
  }
  const double limit = std::exp(-mean);
  double product = uniform_positive();
  while (product > limit) {
    product *= uniform_positive();
    ++count;
  }
  return count;
}

}  // namespace rsmem::sim
