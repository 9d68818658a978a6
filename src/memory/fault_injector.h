// Poisson fault injection for a memory module.
//
// Realizes the paper's fault environment on real bits:
//  * SEUs: Poisson with total rate n*m*lambda (lambda per bit), each arrival
//    flips one uniformly random bit;
//  * permanent faults: Poisson with total rate n*lambda_e (lambda_e per
//    symbol), each arrival sticks one uniformly random bit at a random
//    level.
// Permanent faults are reported (as erasure information) immediately by
// default -- the paper's ideal self-checking assumption -- or after a
// configurable detection latency.
//
// The injector is attached to an EventQueue and perpetuates its own arrival
// events, so fault streams interleave deterministically with scrubbing and
// read events.
#ifndef RSMEM_MEMORY_FAULT_INJECTOR_H
#define RSMEM_MEMORY_FAULT_INJECTOR_H

#include <optional>

#include "memory/memory_module.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/weibull.h"

namespace rsmem::memory {

struct FaultRates {
  double seu_rate_per_bit_hour = 0.0;          // lambda
  double perm_rate_per_symbol_hour = 0.0;      // lambda_e
  double detection_latency_hours = 0.0;        // 0 = ideal location (paper)

  // Multi-bit upsets: fraction of SEU arrivals that flip a BURST of
  // `mbu_span_bits` adjacent bits (linear bit order across the word). A
  // burst crossing a symbol boundary corrupts two adjacent symbols -- the
  // case RS symbol organization cannot absorb. The paper assumes
  // single-bit SEUs (mbu_probability = 0).
  double mbu_probability = 0.0;
  unsigned mbu_span_bits = 2;

  // Wearout: Weibull shape of the permanent-fault process. 1.0 (default)
  // is the constant-rate process the paper's chains assume; beta > 1 makes
  // the per-symbol hazard grow as (beta * rate) * (rate * t)^(beta-1) with
  // the SAME characteristic rate, so over one characteristic life the
  // expected fault count matches the constant-rate process.
  double perm_weibull_shape = 1.0;
};

class FaultInjector {
 public:
  // The injector keeps references to the queue and module; both must
  // outlive it (the owning system guarantees this).
  FaultInjector(const FaultRates& rates, sim::Rng rng,
                sim::EventQueue& queue, MemoryModule& module);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Starts the arrival streams (idempotent).
  void start();

  unsigned seu_injected() const { return seu_injected_; }
  unsigned permanent_injected() const { return permanent_injected_; }

  // The arrival stream, for batch priming (sim::Rng::prime).
  sim::Rng& stream() { return rng_; }

 private:
  void schedule_next_seu();
  void schedule_next_permanent();

  FaultRates rates_;
  sim::Rng rng_;
  sim::EventQueue& queue_;
  MemoryModule& module_;
  // Module-total wearout process (present iff perm_weibull_shape != 1).
  std::optional<sim::WeibullProcess> wearout_;
  bool started_ = false;
  unsigned seu_injected_ = 0;
  unsigned permanent_injected_ = 0;
};

}  // namespace rsmem::memory

#endif  // RSMEM_MEMORY_FAULT_INJECTOR_H
