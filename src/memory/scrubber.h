// Scrubbing schedule policies.
//
// The physical system scrubs PERIODICALLY every Tsc (paper Section 2); the
// Markov models approximate that by an exponential transition of rate 1/Tsc
// (Section 5). Both policies are provided so the Monte-Carlo simulator can
// (a) mirror the real system and (b) exactly match the chains' assumption
// when cross-validating them.
#ifndef RSMEM_MEMORY_SCRUBBER_H
#define RSMEM_MEMORY_SCRUBBER_H

#include <limits>

#include "sim/rng.h"

namespace rsmem::memory {

enum class ScrubPolicy : std::uint8_t {
  kNone,         // never scrub
  kPeriodic,     // deterministic period Tsc (the real hardware behaviour)
  kExponential,  // exponential inter-scrub times, rate 1/Tsc (Markov match)
};

class Scrubber {
 public:
  // `period_hours` is Tsc; ignored for kNone. Throws std::invalid_argument
  // if a scrubbing policy is requested with a non-positive period.
  Scrubber(ScrubPolicy policy, double period_hours, sim::Rng rng);

  ScrubPolicy policy() const { return policy_; }
  double period_hours() const { return period_hours_; }

  // Time of the first scrub after `now`; +infinity when disabled.
  double next_after(double now);

  // The scrub-timing stream, for batch priming (sim::Rng::prime).
  sim::Rng& stream() { return rng_; }

 private:
  ScrubPolicy policy_;
  double period_hours_;
  sim::Rng rng_;
};

}  // namespace rsmem::memory

#endif  // RSMEM_MEMORY_SCRUBBER_H
