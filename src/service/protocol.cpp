#include "service/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace rsmem::service {

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPing:
      return "ping";
    case RequestKind::kBer:
      return "ber";
    case RequestKind::kMttf:
      return "mttf";
    case RequestKind::kSweep:
      return "sweep";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

const char* to_string(CacheSource source) {
  switch (source) {
    case CacheSource::kNone:
      return "none";
    case CacheSource::kMiss:
      return "miss";
    case CacheSource::kHit:
      return "hit";
    case CacheSource::kWait:
      return "wait";
  }
  return "unknown";
}

namespace {

core::Result<RequestKind> kind_from_string(const std::string& name) {
  for (const RequestKind kind :
       {RequestKind::kPing, RequestKind::kBer, RequestKind::kMttf,
        RequestKind::kSweep, RequestKind::kStats, RequestKind::kShutdown}) {
    if (name == to_string(kind)) return kind;
  }
  return core::Status::invalid_config("unknown request kind '" + name + "'");
}

core::Result<CacheSource> cache_source_from_string(const std::string& name) {
  for (const CacheSource source : {CacheSource::kNone, CacheSource::kMiss,
                                   CacheSource::kHit, CacheSource::kWait}) {
    if (name == to_string(source)) return source;
  }
  return core::Status::invalid_config("unknown cache source '" + name + "'");
}

core::Result<core::StatusCode> status_code_from_name(const std::string& name) {
  using core::StatusCode;
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidConfig, StatusCode::kDecodeFailure,
        StatusCode::kMiscorrection, StatusCode::kArbiterNoOutput,
        StatusCode::kSolverDivergence, StatusCode::kDegradedMode,
        StatusCode::kRetryExhausted, StatusCode::kOverloaded,
        StatusCode::kDeadlineExceeded, StatusCode::kBrownout,
        StatusCode::kInternal}) {
    if (name == core::to_string(code)) return code;
  }
  return core::Status::invalid_config("unknown status code '" + name + "'");
}

// Hex-float rendering: bitwise-exact, locale-independent, and cheap to
// compare. Used ONLY in cache keys (the wire format stays decimal JSON).
std::string hex_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

void append_hex_doubles(std::string& out, const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += hex_double(values[i]);
  }
}

}  // namespace

JsonObject spec_to_json(const core::MemorySystemSpec& spec) {
  JsonObject object;
  object.emplace("arrangement", analysis::to_string(spec.arrangement));
  object.emplace("n", static_cast<double>(spec.code.n));
  object.emplace("k", static_cast<double>(spec.code.k));
  object.emplace("m", static_cast<double>(spec.code.m));
  object.emplace("seu", spec.seu_rate_per_bit_day);
  object.emplace("perm", spec.erasure_rate_per_symbol_day);
  object.emplace("tsc", spec.scrub_period_seconds);
  return object;
}

core::Result<core::MemorySystemSpec> spec_from_json(const Json& json) {
  if (!json.is_object()) {
    return core::Status::invalid_config("request 'spec' must be an object");
  }
  core::MemorySystemSpec spec;
  const std::string arrangement = json.string_or("arrangement", "simplex");
  if (arrangement == "simplex") {
    spec.arrangement = analysis::Arrangement::kSimplex;
  } else if (arrangement == "duplex") {
    spec.arrangement = analysis::Arrangement::kDuplex;
  } else {
    return core::Status::invalid_config(
        "spec arrangement must be 'simplex' or 'duplex', got '" + arrangement +
        "'");
  }
  const double n = json.number_or("n", 18);
  const double k = json.number_or("k", 16);
  const double m = json.number_or("m", 8);
  // Positive logic: every comparison against NaN is false, so a
  // `v < 1 || v > max` rejection would wave NaN through to the unsigned
  // cast below (undefined behavior). Require in-range AND integral.
  const auto valid_count = [](double v, double max) {
    return v >= 1 && v <= max && v == std::floor(v);
  };
  if (!valid_count(n, 1e6) || !valid_count(k, 1e6) || !valid_count(m, 64)) {
    return core::Status::invalid_config(
        "spec n/k/m must be integers in range");
  }
  spec.code.n = static_cast<unsigned>(n);
  spec.code.k = static_cast<unsigned>(k);
  spec.code.m = static_cast<unsigned>(m);
  spec.seu_rate_per_bit_day = json.number_or("seu", 0.0);
  spec.erasure_rate_per_symbol_day = json.number_or("perm", 0.0);
  spec.scrub_period_seconds = json.number_or("tsc", 0.0);
  const auto valid_rate = [](double v) { return std::isfinite(v) && v >= 0; };
  if (!valid_rate(spec.seu_rate_per_bit_day) ||
      !valid_rate(spec.erasure_rate_per_symbol_day) ||
      !valid_rate(spec.scrub_period_seconds)) {
    return core::Status::invalid_config(
        "spec seu/perm/tsc must be finite and >= 0");
  }
  return spec;
}

std::string Request::to_json() const {
  JsonObject object;
  object.emplace("id", static_cast<double>(id));
  object.emplace("kind", to_string(kind));
  if (deadline_ms > 0.0) object.emplace("deadline_ms", deadline_ms);
  switch (kind) {
    case RequestKind::kPing:
    case RequestKind::kStats:
    case RequestKind::kShutdown:
      break;
    case RequestKind::kBer:
      object.emplace("spec", spec_to_json(spec));
      object.emplace("periodic", periodic);
      object.emplace("times_hours", Json::from_doubles(times_hours));
      break;
    case RequestKind::kMttf:
      object.emplace("spec", spec_to_json(spec));
      break;
    case RequestKind::kSweep:
      object.emplace("spec", spec_to_json(spec));
      object.emplace("param", sweep_param);
      object.emplace("values", Json::from_doubles(sweep_values));
      object.emplace("hours", sweep_hours);
      break;
  }
  return Json(std::move(object)).serialize();
}

core::Result<Request> Request::from_json(std::string_view text) {
  core::Result<Json> parsed = Json::parse(text);
  if (!parsed.ok()) return parsed.status();
  const Json& json = parsed.value();
  if (!json.is_object()) {
    return core::Status::invalid_config("request frame must be a JSON object");
  }
  Request request;
  request.id = static_cast<std::uint64_t>(json.number_or("id", 0));
  core::Result<RequestKind> kind =
      kind_from_string(json.string_or("kind", ""));
  if (!kind.ok()) return kind.status();
  request.kind = kind.value();
  request.deadline_ms = json.number_or("deadline_ms", 0.0);
  if (!std::isfinite(request.deadline_ms) || request.deadline_ms < 0.0) {
    return core::Status::invalid_config("deadline_ms must be >= 0, got " +
                                        format_double(request.deadline_ms));
  }

  const bool needs_spec = request.kind == RequestKind::kBer ||
                          request.kind == RequestKind::kMttf ||
                          request.kind == RequestKind::kSweep;
  if (needs_spec) {
    const Json* spec_field = json.find("spec");
    if (spec_field == nullptr) {
      return core::Status::invalid_config("request is missing 'spec'");
    }
    core::Result<core::MemorySystemSpec> spec = spec_from_json(*spec_field);
    if (!spec.ok()) return spec.status();
    request.spec = spec.value();
  }
  if (request.kind == RequestKind::kBer) {
    request.periodic = json.bool_or("periodic", false);
    core::Result<std::vector<double>> times = json.doubles_at("times_hours");
    if (!times.ok()) return times.status();
    request.times_hours = std::move(times).value();
    if (request.times_hours.empty()) {
      return core::Status::invalid_config("ber request needs >= 1 time");
    }
    for (const double t : request.times_hours) {
      // doubles_at maps JSON null to NaN (for result payloads); request
      // inputs must be real instants.
      if (!std::isfinite(t) || t < 0) {
        return core::Status::invalid_config(
            "ber times_hours must be finite and >= 0");
      }
    }
  }
  if (request.kind == RequestKind::kSweep) {
    request.sweep_param = json.string_or("param", "");
    if (request.sweep_param != "seu" && request.sweep_param != "perm" &&
        request.sweep_param != "tsc") {
      return core::Status::invalid_config(
          "sweep param must be one of seu|perm|tsc, got '" +
          request.sweep_param + "'");
    }
    core::Result<std::vector<double>> values = json.doubles_at("values");
    if (!values.ok()) return values.status();
    request.sweep_values = std::move(values).value();
    if (request.sweep_values.empty()) {
      return core::Status::invalid_config("sweep request needs >= 1 value");
    }
    for (const double v : request.sweep_values) {
      if (!std::isfinite(v) || v < 0) {
        return core::Status::invalid_config(
            "sweep values must be finite and >= 0");
      }
    }
    request.sweep_hours = json.number_or("hours", 48.0);
    if (!std::isfinite(request.sweep_hours) || request.sweep_hours <= 0) {
      return core::Status::invalid_config("sweep hours must be > 0, got " +
                                          format_double(request.sweep_hours));
    }
  }
  return request;
}

std::string Response::to_json() const {
  JsonObject object;
  object.emplace("id", static_cast<double>(id));
  object.emplace("status", core::to_string(status.code()));
  if (!status.message().empty()) object.emplace("message", status.message());
  object.emplace("cache", to_string(cache));
  object.emplace("compute_ms", compute_ms);
  if (!result_json.empty()) {
    // result_json is already a serialized object produced by this module;
    // re-parsing keeps to_json() purely Json-driven (and validates it).
    core::Result<Json> result = Json::parse(result_json);
    object.emplace("result", result.ok() ? std::move(result).value() : Json());
  }
  return Json(std::move(object)).serialize();
}

core::Result<Response> Response::from_json(std::string_view text) {
  core::Result<Json> parsed = Json::parse(text);
  if (!parsed.ok()) return parsed.status();
  const Json& json = parsed.value();
  if (!json.is_object()) {
    return core::Status::invalid_config("response frame must be a JSON object");
  }
  Response response;
  response.id = static_cast<std::uint64_t>(json.number_or("id", 0));
  core::Result<core::StatusCode> code =
      status_code_from_name(json.string_or("status", ""));
  if (!code.ok()) return code.status();
  response.status = core::Status(code.value(), json.string_or("message", ""));
  core::Result<CacheSource> source =
      cache_source_from_string(json.string_or("cache", "none"));
  if (!source.ok()) return source.status();
  response.cache = source.value();
  response.compute_ms = json.number_or("compute_ms", 0.0);
  if (const Json* result = json.find("result"); result != nullptr) {
    response.result_json = result->serialize();
  }
  return response;
}

std::string canonical_cache_key(const Request& request) {
  switch (request.kind) {
    case RequestKind::kPing:
    case RequestKind::kStats:
    case RequestKind::kShutdown:
      return {};
    case RequestKind::kBer:
    case RequestKind::kMttf:
    case RequestKind::kSweep:
      break;
  }
  std::string key;
  key.reserve(160);
  key += to_string(request.kind);
  key += "|a=";
  key += analysis::to_string(request.spec.arrangement);
  key += "|n=" + std::to_string(request.spec.code.n);
  key += "|k=" + std::to_string(request.spec.code.k);
  key += "|m=" + std::to_string(request.spec.code.m);
  key += "|seu=" + hex_double(request.spec.seu_rate_per_bit_day);
  key += "|perm=" + hex_double(request.spec.erasure_rate_per_symbol_day);
  key += "|tsc=" + hex_double(request.spec.scrub_period_seconds);
  if (request.kind == RequestKind::kBer) {
    key += request.periodic ? "|periodic=1" : "|periodic=0";
    key += "|t=";
    append_hex_doubles(key, request.times_hours);
  } else if (request.kind == RequestKind::kSweep) {
    key += "|param=" + request.sweep_param;
    key += "|h=" + hex_double(request.sweep_hours);
    key += "|v=";
    append_hex_doubles(key, request.sweep_values);
  }
  return key;
}

std::uint64_t cache_key_hash(std::string_view canonical_key) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : canonical_key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Frame transport.

namespace wire {

core::Status write_all(int fd, const void* data, std::size_t size) {
  const char* cursor = static_cast<const char*>(data);
  while (size > 0) {
    // MSG_NOSIGNAL: a peer that disconnected mid-exchange must surface
    // as an EPIPE Status, not a process-killing SIGPIPE.
    const ssize_t wrote = ::send(fd, cursor, size, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return core::Status::internal(std::string("socket write failed: ") +
                                    std::strerror(errno));
    }
    cursor += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
  return core::Status::ok();
}

// Returns bytes read; 0 only on EOF before the first byte.
core::Result<std::size_t> read_all(int fd, void* data, std::size_t size) {
  char* cursor = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, cursor + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired. Distinct message: a bounded wait that ran
        // out means "the peer went quiet", not "the transport broke".
        return core::Status::internal("socket read timed out");
      }
      return core::Status::internal(std::string("socket read failed: ") +
                                    std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return std::size_t{0};
      return core::Status::internal("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace wire

using wire::read_all;
using wire::write_all;

core::Status write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return core::Status::internal("frame payload exceeds kMaxFrameBytes");
  }
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const std::array<unsigned char, 4> header = {
      static_cast<unsigned char>(length >> 24),
      static_cast<unsigned char>(length >> 16),
      static_cast<unsigned char>(length >> 8),
      static_cast<unsigned char>(length)};
  core::Status status = write_all(fd, header.data(), header.size());
  if (!status.is_ok()) return status;
  return write_all(fd, payload.data(), payload.size());
}

core::Result<FrameRead> read_frame(int fd) {
  return read_frame(fd, kMaxFrameBytes);
}

core::Result<FrameRead> read_frame(int fd, std::uint32_t max_frame_bytes) {
  if (max_frame_bytes > kMaxFrameBytes) max_frame_bytes = kMaxFrameBytes;
  std::array<unsigned char, 4> header{};
  core::Result<std::size_t> got = read_all(fd, header.data(), header.size());
  if (!got.ok()) return got.status();
  FrameRead frame;
  if (got.value() == 0) {
    frame.eof = true;
    return frame;
  }
  const std::uint32_t length =
      (static_cast<std::uint32_t>(header[0]) << 24) |
      (static_cast<std::uint32_t>(header[1]) << 16) |
      (static_cast<std::uint32_t>(header[2]) << 8) |
      static_cast<std::uint32_t>(header[3]);
  if (length > max_frame_bytes) {
    // Checked BEFORE the allocation: a hostile 4-byte header must never
    // cost 4 GiB of resize(). InvalidConfig (not Internal) so the server
    // can answer a typed rejection before closing the desynced stream.
    return core::Status::invalid_config(
        "peer announced oversized frame (" + std::to_string(length) +
        " bytes > max " + std::to_string(max_frame_bytes) + ")");
  }
  frame.payload.resize(length);
  if (length > 0) {
    got = read_all(fd, frame.payload.data(), length);
    if (!got.ok()) return got.status();
    if (got.value() == 0) {
      return core::Status::internal("connection closed mid-frame");
    }
  }
  return frame;
}

}  // namespace rsmem::service
