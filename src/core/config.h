// Runtime configuration knobs for the concurrent-breakpoint runtime.
//
// Breakpoints "can be turned on or off like traditional assertions"
// (paper §4): the `enabled` flag is the runtime switch, and the macros in
// core/macros.h provide the compile-time switch (-DCBP_DISABLE_BREAKPOINTS).
//
// The knobs are *engine-scoped*: every Engine owns a RuntimeSettings
// copy, and Config's static API reads/writes the copy of the engine
// bound to the calling thread (Engine::current()).  This is what keeps
// concurrent trials honest — with process-global knobs, one trial's
// prefill quiescing breakpoints (ScopedBreakpointsDisabled) or setting
// its pause time T would silently apply to every trial in flight on
// other workers' engines, losing rendezvous and corrupting measured
// probabilities.  New engines inherit the knobs visible to the creating
// thread, so process-level configuration set before a worker pool
// spawns still reaches the workers' private engines.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace cbp {

/// One engine's copy of the mutable runtime knobs.  Fields are atomics
/// so trial threads may read them while a harness thread reconfigures;
/// all access is relaxed (the knobs are control inputs, not data
/// published between threads).  The timeout and guard cap are nominal
/// (the engine's time scale applies on use); the order delay is host
/// time, never scaled, and slept without timer slack.
struct RuntimeSettings {
  std::atomic<bool> enabled{true};
  std::atomic<std::int64_t> default_timeout_us{100'000};
  std::atomic<std::int64_t> order_delay_us{200};
  std::atomic<std::int64_t> guard_wait_cap_us{5'000'000};

  RuntimeSettings() = default;
  RuntimeSettings(const RuntimeSettings&) = delete;
  RuntimeSettings& operator=(const RuntimeSettings&) = delete;

  // Typed readers.  Engine-internal code reads its own settings through
  // these (one relaxed load); the Config facade below adds the
  // Engine::current() dispatch for everyone else — keep that dispatch
  // off the trigger fast path.
  [[nodiscard]] bool is_enabled() const {
    return enabled.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::chrono::microseconds default_timeout() const {
    return std::chrono::microseconds(
        default_timeout_us.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::chrono::microseconds order_delay() const {
    return std::chrono::microseconds(
        order_delay_us.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::chrono::microseconds guard_wait_cap() const {
    return std::chrono::microseconds(
        guard_wait_cap_us.load(std::memory_order_relaxed));
  }

  /// Relaxed field-by-field copy (engine construction inherits the
  /// creator-visible settings).
  void inherit(const RuntimeSettings& from) {
    enabled.store(from.enabled.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    default_timeout_us.store(
        from.default_timeout_us.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    order_delay_us.store(from.order_delay_us.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    guard_wait_cap_us.store(
        from.guard_wait_cap_us.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
};

/// Static facade over the *bound* engine's RuntimeSettings (see the
/// file comment).  Call sites read exactly as they did when the knobs
/// were process-global; the routing is the only change.
class Config {
 public:
  /// Runtime on/off switch.  When disabled, trigger_here() is a cheap
  /// no-op returning "not hit".
  static void set_enabled(bool on);
  static bool enabled();

  /// Default postponement timeout T (nominal; TimeScale applies on use).
  /// Paper default: 100 ms (Global.TIMEOUT).
  static void set_default_timeout(std::chrono::milliseconds t);
  static std::chrono::microseconds default_timeout();

  /// How long a later-ordered thread is held after an earlier-ordered
  /// thread returns from a *non-scoped* trigger_here, so that the earlier
  /// thread's "next instruction" actually executes first.  Host time:
  /// no TimeScale applies.
  static void set_order_delay(std::chrono::microseconds d);
  static std::chrono::microseconds order_delay();

  /// Upper bound on how long a later-ordered thread will wait for an
  /// earlier thread's OrderingGuard; a leaked guard therefore degrades to
  /// a delay, never a hang (paper §3: postponement must not deadlock).
  static void set_guard_wait_cap(std::chrono::milliseconds t);
  static std::chrono::microseconds guard_wait_cap();
};

/// RAII disable (e.g. to measure "normal" runtime in benches).  Scoped
/// to the calling thread's engine: a trial quiescing its own
/// breakpoints leaves concurrent trials untouched.
class ScopedBreakpointsDisabled {
 public:
  ScopedBreakpointsDisabled() : previous_(Config::enabled()) {
    Config::set_enabled(false);
  }
  ~ScopedBreakpointsDisabled() { Config::set_enabled(previous_); }
  ScopedBreakpointsDisabled(const ScopedBreakpointsDisabled&) = delete;
  ScopedBreakpointsDisabled& operator=(const ScopedBreakpointsDisabled&) =
      delete;

 private:
  bool previous_;
};

}  // namespace cbp
