// Shared pieces of the benchmark: the clock, a fine-grained latency
// histogram, span storage, the segment hand-off and the result that
// every workload fills in.  Only the benchmark uses this header; the
// library is driven through its public calls alone.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/latch.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one now_ns() call adds to a span that brackets no work: the
/// median gap between back-to-back reads.  Span durations subtract it so
/// that adjacent spans add up to the work they cover.
std::int64_t clock_cost_ns();

/// Cycle counter for the kv phase spans (phases of ~50 ns).  The lfence
/// makes each read wait for the phase before it to finish, so a span
/// holds its own phase's work; without it, a get's cache miss completes
/// after the span ends and the per-layer differences go negative.  On a
/// 4-vCPU Xeon VM it cost ~10 ns where steady_clock's vDSO read cost
/// ~27 ns, and steady_clock spans summed to 1.4x the per-request time
/// against 1.2x for these.  Falls back to now_ns() where there is no TSC.
inline std::int64_t ticks() {
#if defined(__x86_64__)
  __builtin_ia32_lfence();
  return static_cast<std::int64_t>(__builtin_ia32_rdtsc());
#else
  return now_ns();
#endif
}

/// Nanoseconds per tick (measured against steady_clock) and the median
/// cost of one ticks() read in ticks.
struct TickScale {
  double ns_per_tick = 1.0;
  std::int64_t cost = 0;
};
TickScale calibrate_ticks();

/// Log-linear histogram of non-negative integer samples: 32 linear
/// sub-buckets per power of two (about 3% wide), with quantiles
/// interpolated inside the bucket, so a median moves with the data
/// instead of snapping to a bucket edge.
class LatHist {
 public:
  void add(std::int64_t value) {
    const auto v = static_cast<std::uint64_t>(value < 0 ? 0 : value);
    counts_[index(v)] += 1;
    n_ += 1;
    sum_ += static_cast<double>(v);
  }
  LatHist& operator+=(const LatHist& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
    return *this;
  }
  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
  }
  /// Value below which a share `q` of the samples falls; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double target = q * static_cast<double>(n_);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (c > 0 && seen + c >= target) {
        const double frac = std::clamp((target - seen) / c, 0.0, 1.0);
        return lower(i) + frac * width(i);
      }
      seen += c;
    }
    return lower(counts_.size() - 1);
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSub = 1u << kSubBits;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // e >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
  }
  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const auto e = static_cast<int>(i / kSub) + kSubBits - 1;
    const double sub = static_cast<double>(i % kSub);
    return (static_cast<double>(kSub) + sub) * static_cast<double>(1ULL << (e - kSubBits));
  }
  static double width(std::size_t i) {
    if (i < kSub) return 1.0;
    const auto e = static_cast<int>(i / kSub) + kSubBits - 1;
    return static_cast<double>(1ULL << (e - kSubBits));
  }

  std::array<std::uint64_t, 64 * kSub> counts_{};
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

/// Median and quartiles of a small sample, computed as Python's
/// statistics.quantiles(values, n=4) does (the "exclusive" method).
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Spread spread(std::vector<double> values);

/// One timed interval of the span run.  `op` is shared by every span of
/// one operation (a kv request, or one matched group); `parent` is the id
/// of the enclosing span, 0 for a root.
struct Span {
  std::uint64_t op = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread span buffer with a fixed capacity, so a long run keeps its
/// first spans and stays small; the histograms carry every sample.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = 0) { spans_.reserve(capacity); }
  std::uint32_t add(std::uint64_t op, std::uint32_t parent, const char* name,
                    std::int64_t start_ns, std::int64_t end_ns) {
    const std::uint32_t id = ++next_id_;
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({op, id, parent, name, start_ns, end_ns});
    }
    return id;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 0;
};

/// Segmented runs meet at an rt::Barrier of the workers plus the
/// coordinator.  Each worker arrives once when it is ready, then per
/// segment: arrives (start), reads what the coordinator published, runs
/// until `stop`, arrives again (done).  This is the coordinator's side of
/// one segment; the barrier orders what either side wrote before it.
inline void run_segment_for(cbp::rt::Barrier& gate, std::atomic<bool>& stop,
                            std::chrono::nanoseconds length) {
  stop.store(false, std::memory_order_relaxed);
  gate.arrive_and_wait();
  std::this_thread::sleep_for(length);
  stop.store(true, std::memory_order_relaxed);
  gate.arrive_and_wait();
}

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool spans = false;  ///< --trace 1: the span run
  bool smoke = false;  ///< tiny sizes, for the smoke test
  std::string out_dir = ".";
  int nproc = 1;
};

/// What a workload run reports back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks, one line each
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> detail;  ///< raw JSON values
  std::vector<Span> spans;  ///< written at exit by the span run

  /// Records a failed check; `count` operations are counted as failed.
  void fail(const std::string& what, std::uint64_t count) {
    problems.push_back(what + " (" + std::to_string(count) + ")");
    failed += count;
  }
  /// Checks `ok`; on failure counts `count` failed operations.
  void check(bool ok, const std::string& what, std::uint64_t count = 1) {
    if (!ok) fail(what, count == 0 ? 1 : count);
  }
  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void note(const std::string& key, const std::string& json) {
    detail.emplace_back(key, json);
  }
};

/// JSON text for a number ("null" when not finite).
std::string json_number(double v);
/// JSON text for a Spread: {"median":..,"q1":..,"q3":..,"n":..}.
std::string json_spread(const Spread& s);

/// Tears down `rig`, then runs `build` `times` times, each time on a
/// fresh rig, and keeps the last one; appends each build's time in
/// seconds to `seconds`.  Workloads set up in every part of a run.
template <class Rig, class Build>
void timed_setup(int times, std::unique_ptr<Rig>& rig, Build build,
                 std::vector<double>& seconds) {
  for (int i = 0; i < times; ++i) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = build();
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
}

Outcome run_kv_armed(const Options& options);
Outcome run_hits_local(const Options& options);
Outcome run_hits_broker(const Options& options);

}  // namespace perfbench
