#include "sim/mt19937_64.h"

#include <algorithm>

namespace rsmem::sim {

namespace {
// Words twisted by an engine's first refill: few, so an engine that draws
// once or twice seeds little more than the 157 words its first output
// needs. Later refills twist through the end of the block.
constexpr unsigned kFirstChunk = 4;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;

// Regenerates one state word from itself, its successor and the word kM
// ahead (mod kN). Branch-free: the low bit of y is a coin flip, so a
// branch on it mispredicts half the time.
inline std::uint64_t twist(std::uint64_t word, std::uint64_t next,
                           std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1)));
}
}  // namespace

unsigned Mt19937_64::seed_words_for(std::size_t draws) {
  if (draws == 0) return 1;
  // The first refill twists kFirstChunk words, each reading the word kM
  // ahead; any later refill twists through the end of the block.
  return draws <= kFirstChunk ? kFirstChunk + kM : kN;
}

void Mt19937_64::seed_through(unsigned words) {
  std::uint64_t prev = x_[seeded_ - 1];  // the chain stays in a register
  for (unsigned i = seeded_; i < words; ++i) {
    prev = kInitMultiplier * (prev ^ (prev >> 62)) + i;
    x_[i] = prev;
  }
  seeded_ = std::max(seeded_, words);
}

void Mt19937_64::seed_lockstep(std::span<Mt19937_64* const> engines,
                               std::size_t draws) {
  const unsigned words = seed_words_for(draws);
  constexpr std::size_t kLanes = 8;
  std::size_t e = 0;
  for (; e + kLanes <= engines.size(); e += kLanes) {
    Mt19937_64* const* lane = engines.data() + e;
    const unsigned from = lane[0]->seeded_;
    bool aligned = true;
    for (std::size_t l = 1; l < kLanes; ++l) {
      aligned = aligned && lane[l]->seeded_ == from;
    }
    if (!aligned) {
      for (std::size_t l = 0; l < kLanes; ++l) lane[l]->seed_through(words);
      continue;
    }
    std::uint64_t prev[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) prev[l] = lane[l]->x_[from - 1];
    for (unsigned i = from; i < words; ++i) {
#pragma GCC unroll 8
      for (std::size_t l = 0; l < kLanes; ++l) {
        prev[l] = kInitMultiplier * (prev[l] ^ (prev[l] >> 62)) + i;
        lane[l]->x_[i] = prev[l];
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane[l]->seeded_ = std::max(from, words);
    }
  }
  for (; e < engines.size(); ++e) engines[e]->seed_through(words);
}

void Mt19937_64::refill() {
  if (pos_ == kN) pos_ = 0;
  const unsigned end = ready_ == 0 ? kFirstChunk : kN;
  // Word k reads words k+1 and k+kM (mod kN); the wrapped reads land on
  // words already regenerated in this block.
  if (seeded_ < kN) seed_through(std::min(kN, end + kM));
  unsigned k = pos_;
  for (; k < std::min(end, kN - kM); ++k) {
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
  }
  for (; k < std::min(end, kN - 1); ++k) {
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
  }
  if (k == kN - 1) {
    x_[k] = twist(x_[k], x_[0], x_[kM - 1]);
    ++k;
  }
  ready_ = k;
}

void Mt19937_64::generate(std::uint64_t* out, std::size_t count) {
  while (count > 0) {
    if (pos_ == ready_) refill();
    const std::size_t run = std::min<std::size_t>(ready_ - pos_, count);
    const std::uint64_t* src = x_ + pos_;
    for (std::size_t i = 0; i < run; ++i) out[i] = temper(src[i]);
    pos_ += static_cast<unsigned>(run);
    out += run;
    count -= run;
  }
}

}  // namespace rsmem::sim
