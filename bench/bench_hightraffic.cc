// Armed-path overhead at production load (DESIGN.md §5i): the sharded-KV
// replica serves a Zipfian-distributed million-key keyspace for 10^5+
// client sessions on a worker pool, with the two seeded breakpoints
// armed the whole time.  Four configurations × {1,2,4} threads:
//
//   off             — no trigger calls compiled into the op path
//                     (instrumentation-off floor)
//   specs-disabled  — probes present, spec marks both names off (the
//                     per-site cached fast path)
//   armed-unmatched — breakpoints armed at full load but never matching:
//                     the reader probe local-rejects on every quiescent
//                     get, the writer probe bounds out on every put.
//                     This is the configuration production pays for, and
//                     the SLO gate lives here: at 4 threads its
//                     throughput must stay >= 90% of instrumentation-off.
//   armed-matching  — resizes and evictions actually occur, the
//                     breakpoints hit up to their spec bound, pauses and
//                     rendezvous included (what a debugging session costs).
//
// After the throughput matrix, the full run repeats the paper-style
// reproduction check on both seeded bugs: `runs` armed trials each, the
// observed artifact probability's 95% Wilson interval must overlap the
// predicted one (the breakpoint hit probability — a hit parks the racing
// pair inside the window, so hits predict artifacts), and the unarmed
// control trials must stay near zero (at most 1 in 10: the unarmed
// window is preemption-wide on a loaded machine, and the paper's own
// control columns are small but nonzero).
//
// --quick trims the matrix to {1,2} threads on a scaled-down keyspace
// and skips the SLO/repro gates (CI runs it three times and gates the
// rows through tools/perf_gate.py against BENCH_hightraffic.json; rows
// get distinct `hightraffic-quick/` names so the two configurations
// never cross-match).  Exit status: 0 when every enabled gate passes,
// 1 on an SLO or reproduction-interval failure, 2 on a usage error,
// which includes a flag it cannot honour (--clock=virtual,
// --trial-jobs > 1).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "apps/kvstore/kvstore.h"
#include "bench_util.h"
#include "harness/experiment.h"

namespace {

using namespace cbp;
using apps::kvstore::Mode;

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kSpecsDisabled: return "specs-disabled";
    case Mode::kArmedUnmatched: return "armed-unmatched";
    case Mode::kArmedMatching: return "armed-matching";
  }
  return "?";
}

/// Extracts `--quick` from argv (compacted away like the bench_util
/// flags so positional parsing still works).
bool take_quick_flag(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      return true;
    }
  }
  return false;
}

struct ReproSummary {
  int artifact_runs = 0;  ///< armed trials where the bug manifested
  int hit_runs = 0;       ///< armed trials where the breakpoint hit
  int control_runs = 0;   ///< unarmed trials where the bug manifested
  bool in_interval = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cbp;
  using namespace std::chrono_literals;
  const bool quick = take_quick_flag(argc, argv);
  std::printf("=== High-traffic sharded KV: armed-path overhead at "
              "production load ===\n");
  const auto config = bench::setup(
      argc, argv, /*default_runs=*/10, /*default_scale=*/0.2,
      "its trials share the process-global engine, so they run serially",
      "the KV workload measures real wall time");
  // The seeded-race choreography (resizer poisons, then the stale reader
  // scans) needs the resolution order enforced on a coarser grain than
  // the 200us bench default: 400us of host time (the order delay is
  // never scaled), the hold BENCH_hightraffic.json's rows were measured
  // with, so fresh rows stay comparable to them.
  Config::set_order_delay(400us);

  apps::kvstore::WorkloadOptions base;
  if (quick) {
    base.keys = 1u << 16;
    base.sessions = 1u << 13;
    base.ops_per_thread = 1u << 18;
  } else {
    base.keys = 1u << 20;      // million-key Zipfian keyspace
    base.sessions = 1u << 17;  // 131072 client sessions on the pool
    base.ops_per_thread = 1u << 20;
  }
  base.work_per_op = 160;  // per-request parse/serialize stand-in
  base.pause = 100ms;
  base.seed = 1;

  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const int reps = quick ? 2 : 3;
  const std::string prefix = quick ? "hightraffic-quick" : "hightraffic";
  const std::vector<Mode> modes = {Mode::kOff, Mode::kSpecsDisabled,
                                   Mode::kArmedUnmatched,
                                   Mode::kArmedMatching};

  // Discarded warm-up: cold caches and the CPU frequency ramp otherwise
  // land entirely on the first measured combo.
  {
    auto warmup = base;
    warmup.mode = Mode::kOff;
    warmup.threads = thread_counts.back();
    apps::kvstore::run_workload(warmup);
  }

  // Interleaved repetitions, per-cell min: each rep sweeps the whole
  // matrix in order, so slow drift (frequency scaling, a background
  // task) hits every mode rather than whichever combo ran first, and
  // the min across reps estimates true cost (interference on a shared
  // machine only ever adds time — the perf gate's reasoning).
  std::vector<apps::kvstore::WorkloadResult> best(modes.size() *
                                                  thread_counts.size());
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t cell = 0;
    for (const Mode mode : modes) {
      for (const int threads : thread_counts) {
        auto options = base;
        options.mode = mode;
        options.threads = threads;
        std::fprintf(stderr, "  rep %d/%d: %s/threads:%d ...\n", rep + 1,
                     reps, mode_name(mode), threads);
        const auto result = apps::kvstore::run_workload(options);
        if (rep == 0 || result.ns_per_op < best[cell].ns_per_op) {
          best[cell] = result;
        }
        ++cell;
      }
    }
  }

  bench::JsonReport report(quick ? "hightraffic-quick" : "hightraffic",
                           config.time_scale);
  harness::TextTable table({"Mode", "Threads", "ns/op", "Mops/s", "Calls",
                            "Hits", "Resizes"});
  double off_ns_4t = 0.0;
  double armed_unmatched_ns_4t = 0.0;
  const int slo_threads = thread_counts.back();
  {
    std::size_t cell = 0;
    for (const Mode mode : modes) {
      for (const int threads : thread_counts) {
        const auto& result = best[cell++];
        char ns_buf[32], mops_buf[32];
        std::snprintf(ns_buf, sizeof ns_buf, "%.1f", result.ns_per_op);
        std::snprintf(mops_buf, sizeof mops_buf, "%.2f",
                      result.ns_per_op > 0 ? 1e3 / result.ns_per_op : 0.0);
        table.add_row({mode_name(mode), std::to_string(threads), ns_buf,
                       mops_buf, std::to_string(result.trigger_calls),
                       std::to_string(result.hits),
                       std::to_string(result.resizes)});
        report.add(prefix + "/" + mode_name(mode) +
                       "/threads:" + std::to_string(threads),
                   threads, result.ns_per_op, "ns_per_op");
        if (threads == slo_threads) {
          if (mode == Mode::kOff) off_ns_4t = result.ns_per_op;
          if (mode == Mode::kArmedUnmatched) {
            armed_unmatched_ns_4t = result.ns_per_op;
          }
        }
      }
    }
  }
  table.print(std::cout);

  if (quick) {
    std::printf("\n(--quick: SLO and reproduction gates skipped; CI gates "
                "these rows via tools/perf_gate.py)\n");
    report.flush(config.json_path);
    return 0;
  }

  // --- SLO gate: armed-but-unmatched must keep >= 90% of the
  // instrumentation-off throughput at full parallelism. -----------------
  const double slo_ratio =
      armed_unmatched_ns_4t > 0 ? off_ns_4t / armed_unmatched_ns_4t : 0.0;
  const bool slo_ok = slo_ratio >= 0.90;
  std::printf("\nSLO: armed-unmatched throughput at %d threads = %.1f%% of "
              "instrumentation-off (gate: >= 90%%) -> %s\n",
              slo_threads, slo_ratio * 100.0, slo_ok ? "OK" : "FAIL");
  report.add("hightraffic/slo-armed-vs-off", slo_threads, slo_ratio,
             "throughput_ratio");

  // --- Reproduction check: both seeded bugs, paper-style Wilson
  // intervals, unarmed controls. ----------------------------------------
  apps::RunOptions ropts;
  ropts.pause = 300ms;
  // Controls gate on "near zero", not exactly zero — see the header
  // comment.  1-in-10 at the default runs; scales with --runs.
  const int control_max = config.runs / 10;
  const auto repro = [&](const char* label, const char* bp_name,
                         apps::RunOutcome (*run)(const apps::RunOptions&)) {
    ReproSummary s;
    for (int i = 0; i < config.runs; ++i) {
      Engine::instance().reset();
      auto options = ropts;
      options.breakpoints = true;
      options.seed = 1 + static_cast<std::uint64_t>(i);
      s.artifact_runs += run(options).buggy() ? 1 : 0;
      s.hit_runs += Engine::instance().stats(bp_name).hits > 0 ? 1 : 0;
    }
    for (int i = 0; i < config.runs; ++i) {
      Engine::instance().reset();
      auto options = ropts;
      options.breakpoints = false;
      options.seed = 1 + static_cast<std::uint64_t>(i);
      s.control_runs += run(options).buggy() ? 1 : 0;
    }
    const auto observed = harness::wilson_interval(s.artifact_runs,
                                                   config.runs);
    const auto predicted = harness::wilson_interval(s.hit_runs, config.runs);
    s.in_interval = observed.overlaps(predicted);
    std::printf("%s: artifact %d/%d [%s, %s], hit %d/%d [%s, %s], control "
                "%d/%d -> %s\n",
                label, s.artifact_runs, config.runs,
                harness::fmt_prob(observed.low).c_str(),
                harness::fmt_prob(observed.high).c_str(), s.hit_runs,
                config.runs, harness::fmt_prob(predicted.low).c_str(),
                harness::fmt_prob(predicted.high).c_str(), s.control_runs,
                config.runs,
                s.in_interval && s.control_runs <= control_max ? "OK"
                                                               : "FAIL");
    report.add(std::string("hightraffic/") + label + "-artifact-prob", 2,
               static_cast<double>(s.artifact_runs) / config.runs,
               "probability");
    report.add(std::string("hightraffic/") + label + "-hit-prob", 2,
               static_cast<double>(s.hit_runs) / config.runs, "probability");
    report.add(std::string("hightraffic/") + label + "-control-prob", 2,
               static_cast<double>(s.control_runs) / config.runs,
               "probability");
    return s;
  };

  std::printf("\nReproduction (runs=%d armed + %d control per bug):\n",
              config.runs, config.runs);
  const ReproSummary resize =
      repro("resize-race", apps::kvstore::kResizeRace,
            apps::kvstore::run_resize_race);
  const ReproSummary evict =
      repro("evict-toctou", apps::kvstore::kEvictToctou,
            apps::kvstore::run_evict_toctou);

  report.flush(config.json_path);

  const bool repro_ok =
      resize.in_interval && resize.control_runs <= control_max &&
      evict.in_interval && evict.control_runs <= control_max;
  std::printf("\n%s\n", slo_ok && repro_ok
                            ? "hightraffic gates passed (SLO + both "
                              "reproduction intervals)."
                            : "HIGHTRAFFIC GATE FAILURE");
  return slo_ok && repro_ok ? 0 : 1;
}
