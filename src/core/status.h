// Structured failure taxonomy for the rsmem runtime.
//
// The paper's systems survive faults by CLASSIFYING them (random error vs
// located erasure vs arbiter disagreement) and routing each class to a
// recovery mechanism. The reproduction's own runtime follows the same
// discipline: every failure a layer can produce is a Status with a code
// from one taxonomy, carrying an actionable message and the context chain
// of the layers it crossed. Recoverable paths return Status/Result<T>;
// exceptions are reserved for programming errors (bad spans, use before
// store) and for StatusError, the bridge used where an interface cannot
// return a Status (solver internals, legacy call sites).
#ifndef RSMEM_CORE_STATUS_H
#define RSMEM_CORE_STATUS_H

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace rsmem::core {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  // Caller-side: the request itself is malformed (RS geometry, negative
  // rates, zero scrub period where scrubbing is required, ...).
  kInvalidConfig,
  // Decoder: detected uncorrectable pattern (the decoder KNOWS it failed).
  kDecodeFailure,
  // Decoder: produced a valid but WRONG codeword. Only diagnosable against
  // ground truth (simulation / differential tests); real hardware cannot
  // see this -- which is exactly why the duplex arbiter exists.
  kMiscorrection,
  // Duplex arbiter: discrimination impossible, no output produced.
  kArbiterNoOutput,
  // Markov solver: a numerical guard tripped (NaN, negative probability,
  // probability-mass drift) or an iteration cap was exceeded.
  kSolverDivergence,
  // Operation succeeded, but only through a degradation fallback (retry,
  // erasure-only decode, duplex->simplex demotion). The result is valid;
  // the system is running with reduced margin.
  kDegradedMode,
  // Every rung of a recovery/fallback chain was exhausted.
  kRetryExhausted,
  // Service admission control: the request queue is at capacity and the
  // request was REJECTED up front (typed, never a silent drop). The caller
  // should back off and retry; the service is healthy, just saturated.
  kOverloaded,
  // Service scheduling: the request was admitted but its deadline expired
  // before a worker could start it. No computation was performed.
  kDeadlineExceeded,
  // Service brown-out: the scheduler is under sustained overload and is
  // shedding cache-MISS analysis work to protect cache hits and the
  // control plane. Like kOverloaded this is a typed up-front rejection,
  // but it carries a retry-after hint and signals degraded (not merely
  // saturated) service.
  kBrownout,
  // Invariant violation inside rsmem itself.
  kInternal,
};

// Stable identifier, e.g. "InvalidConfig".
const char* to_string(StatusCode code);

class Status {
 public:
  Status() = default;  // ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status invalid_config(std::string message) {
    return {StatusCode::kInvalidConfig, std::move(message)};
  }
  static Status decode_failure(std::string message) {
    return {StatusCode::kDecodeFailure, std::move(message)};
  }
  static Status miscorrection(std::string message) {
    return {StatusCode::kMiscorrection, std::move(message)};
  }
  static Status arbiter_no_output(std::string message) {
    return {StatusCode::kArbiterNoOutput, std::move(message)};
  }
  static Status solver_divergence(std::string message) {
    return {StatusCode::kSolverDivergence, std::move(message)};
  }
  static Status degraded_mode(std::string message) {
    return {StatusCode::kDegradedMode, std::move(message)};
  }
  static Status retry_exhausted(std::string message) {
    return {StatusCode::kRetryExhausted, std::move(message)};
  }
  static Status overloaded(std::string message) {
    return {StatusCode::kOverloaded, std::move(message)};
  }
  static Status deadline_exceeded(std::string message) {
    return {StatusCode::kDeadlineExceeded, std::move(message)};
  }
  static Status brownout(std::string message) {
    return {StatusCode::kBrownout, std::move(message)};
  }
  static Status internal(std::string message) {
    return {StatusCode::kInternal, std::move(message)};
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Prepends "context: " to the message, building the layer chain as the
  // status propagates outward, e.g. "analyze_ber: solver: mass drift ...".
  Status& with_context(std::string_view context);

  // "InvalidConfig: require k < n (got k=16, n=16)"; "OK" when ok.
  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Exception bridge for interfaces that cannot return a Status (virtual
// solver entry points, constructors). Carries the full Status.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

// Value-or-Status. A Result either holds a T (ok) or a non-ok Status.
// value() on an error result throws StatusError -- failures must be
// checked, never silently unwrapped.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.is_ok()) {
      status_ = Status::internal("Result constructed from an OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Status& status() const { return status_; }

  const T& value() const& {
    require_ok();
    return *value_;
  }
  T& value() & {
    require_ok();
    return *value_;
  }
  T&& value() && {
    require_ok();
    return std::move(*value_);
  }
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void require_ok() const {
    if (!ok()) throw StatusError(status_);
  }

  std::optional<T> value_;
  Status status_;  // ok iff value_ holds
};

}  // namespace rsmem::core

#endif  // RSMEM_CORE_STATUS_H
