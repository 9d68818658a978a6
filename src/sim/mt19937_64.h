// MT19937-64 with lazy seeding and a lazy twist.
//
// Produces exactly the sequence std::mt19937_64 produces for the same
// seed (the engine and its single-value seeding are fully specified by the
// C++ standard), but does only the work that the draws made so far need.
// The standard engine seeds all 312 state words on construction and
// regenerates all 312 on the first draw. A Monte-Carlo trial builds
// several engines that draw one or two values each (the system seed, the
// first fault arrival), so that up-front work dominated trial setup.
//
// Output i of a block is the tempered twist of state words i, i+1 and
// i+156 (mod 312), regenerated in place in ascending order. So the first
// block's output i needs the seeding recurrence run only through word
// i+156, and the twist can run a few words ahead of the reader: in-place
// regeneration of word k reads the same words whether it runs in a
// 312-word pass or on its own.
#ifndef RSMEM_SIM_MT19937_64_H
#define RSMEM_SIM_MT19937_64_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace rsmem::sim {

class Mt19937_64 {
 public:
  explicit Mt19937_64(std::uint64_t seed) { x_[0] = seed; }

  std::uint64_t operator()() {
    if (pos_ == ready_) refill();
    return temper(x_[pos_++]);
  }

  // Writes the next `count` outputs to out[0, count): the values `count`
  // calls of operator() would return, tempered a run at a time.
  void generate(std::uint64_t* out, std::size_t count);

  // Runs, ahead of time, the seeding the first `draws` draws of each
  // engine need, interleaving the engines eight at a time. One engine's
  // seeding is a serial multiply chain bound by multiply latency; eight
  // independent chains share the pipeline. Outputs are unchanged.
  static void seed_lockstep(std::span<Mt19937_64* const> engines,
                            std::size_t draws);

 private:
  static std::uint64_t temper(std::uint64_t y) {
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71D67FFFEDA60000ull;
    y ^= (y << 37) & 0xFFF7EEE000000000ull;
    return y ^ (y >> 43);
  }

  static constexpr unsigned kN = 312;  // state words
  static constexpr unsigned kM = 156;  // twist offset

  // State words the first `draws` outputs read: the seeding they need.
  static unsigned seed_words_for(std::size_t draws);
  // Extends the seeded prefix to `words` state words.
  void seed_through(unsigned words);
  // Regenerates the next few state words (seeding as far as they need
  // first) and marks them ready for output.
  void refill();

  std::uint64_t x_[kN];  // words at and past seeded_ are not yet written
  unsigned seeded_ = 1;  // words [0, seeded_) hold the seeded state
  unsigned pos_ = 0;     // next word to output
  unsigned ready_ = 0;   // words [pos_, ready_) are twisted, not yet output
};

}  // namespace rsmem::sim

#endif  // RSMEM_SIM_MT19937_64_H
