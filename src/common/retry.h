// Retry policy: capped exponential backoff with deterministic jitter and a
// client-wide retry budget.
//
// The policy is pure arithmetic — no clock, no shared RNG — so two runs
// with the same seed and the same operation sequence compute bit-identical
// backoff schedules regardless of event interleaving. Jitter is derived by
// hashing (seed, op_key, attempt): every operation gets its own jitter
// stream (spreading a thundering herd of retriers) without consuming state
// anywhere. The one coroutine loop that applies the policy is sim::retry
// (sim/retry.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>

#include "common/rng.h"
#include "common/units.h"

namespace tio {

struct RetryPolicy {
  // Total tries per operation (first attempt included). 1 = no retries.
  // Sized so an op whose early attempts are consumed by an outage window
  // (the stress preset's is 150 ms) still has several capped-backoff
  // attempts left after the window lifts — with 8 the schedule barely
  // outlasted the window and one random transient on the final attempt
  // failed the op.
  int max_attempts = 10;
  Duration initial_backoff = Duration::ms(2);
  // Capped exponential: backoff(k) = min(initial * multiplier^k, max_backoff).
  double multiplier = 2.0;
  Duration max_backoff = Duration::ms(250);
  // Fraction of the nominal backoff used as a symmetric jitter window:
  // actual = nominal * (1 + jitter * u), u deterministic in [-1, 1).
  double jitter = 0.25;
  // Stream seed for the deterministic jitter hash.
  std::uint64_t seed = 0x0b0ff5eed;

  // Nominal capped-exponential backoff before attempt `attempt`+1 (so the
  // first retry waits roughly initial_backoff). Saturates instead of
  // overflowing for large attempt counts.
  Duration nominal_backoff(int attempt) const {
    double ns = static_cast<double>(initial_backoff.to_ns());
    for (int i = 0; i < attempt; ++i) {
      ns *= multiplier;
      if (ns >= static_cast<double>(max_backoff.to_ns())) return max_backoff;
    }
    return std::min(Duration::ns(static_cast<std::int64_t>(ns)), max_backoff);
  }

  // Jittered backoff for retry number `attempt` (0-based) of the operation
  // identified by `op_key`. Pure function of (seed, op_key, attempt).
  Duration backoff(int attempt, std::uint64_t op_key) const {
    const Duration nominal = nominal_backoff(attempt);
    if (jitter <= 0.0) return nominal;
    const std::uint64_t h =
        splitmix64(hash_combine(seed ^ op_key, static_cast<std::uint64_t>(attempt) + 1));
    // u in [-1, 1): 53 uniform bits, shifted.
    const double u = static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
    const double ns = static_cast<double>(nominal.to_ns()) * (1.0 + jitter * u);
    return Duration::ns(std::max<std::int64_t>(0, static_cast<std::int64_t>(ns)));
  }
};

// Jitter-stream key for an op on `path`: every path retries on its own
// deterministic schedule, spreading thundering herds. Each caller keeps its
// own `seed`, so two callers retrying the same path draw different streams.
inline std::uint64_t path_op_key(std::uint64_t seed, std::string_view path) {
  std::uint64_t h = seed;
  for (const char c : path) h = splitmix64(h ^ static_cast<unsigned char>(c));
  return h;
}

// A client-wide cap on total retries. One budget is shared by every
// operation of a client instance, so a persistent failure (dead backend,
// corrupt file) cannot degenerate into an unbounded retry storm: once the
// budget is dry, failures surface immediately. Deterministic because every
// consumer runs on the deterministic engine.
class RetryBudget {
 public:
  // For a client with no cap (a plain POSIX client re-issuing syscalls).
  static constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();

  explicit RetryBudget(std::uint64_t total = 4096) : remaining_(total) {}

  // Takes one retry token; false when the budget is exhausted.
  bool try_consume() {
    if (remaining_ == 0) return false;
    --remaining_;
    return true;
  }
  std::uint64_t remaining() const { return remaining_; }
  void refill(std::uint64_t total) { remaining_ = total; }

 private:
  std::uint64_t remaining_;
};

}  // namespace tio
