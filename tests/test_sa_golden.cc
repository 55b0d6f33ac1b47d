// Golden tests for cbp-sa over the repo's own replica apps: the static
// analyzer must rediscover the seeded cache4j races, the Jigsaw Fig. 2
// crossed-lock deadlock, and the log4j AsyncAppender contention pair —
// and its candidate sites must agree with what the dynamic detectors
// report when the same code actually runs.  Detector cross-checks run
// worker threads sequentially (join between them) for deterministic
// verdicts, same as test_detect.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/cache/cache.h"
#include "apps/logging/async_appender.h"
#include "apps/webserver/jigsaw.h"
#include "core/cbp.h"
#include "core/spec.h"
#include "detect/contention.h"
#include "detect/eraser.h"
#include "detect/lock_order.h"
#include "instrument/hub.h"
#include "sa/analyzer.h"
#include "sa/rank.h"

namespace cbp::sa {
namespace {

using namespace std::chrono_literals;

std::string src_path(const std::string& rel) {
  return std::string(CBP_SOURCE_DIR) + "/" + rel;
}

std::string basename_of(std::string_view path) {
  const auto slash = path.rfind('/');
  return std::string(slash == std::string_view::npos
                         ? path
                         : path.substr(slash + 1));
}

/// Runs `fn` on a fresh thread and joins (fresh dense thread id).
template <class Fn>
void on_thread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

const Candidate* find_candidate(const AnalysisResult& result,
                                Candidate::Kind kind,
                                const std::string& subject,
                                std::uint32_t line_a, std::uint32_t line_b) {
  for (const Candidate& c : result.candidates) {
    if (c.kind == kind && c.subject == subject && c.site_a.line == line_a &&
        c.site_b.line == line_b) {
      return &c;
    }
  }
  return nullptr;
}

class SaGoldenTest : public ::testing::Test {
 protected:
  // The replicas never arm their triggers here, but disable breakpoints
  // anyway so no engine state from other suites can perturb timing.
  void SetUp() override { Config::set_enabled(false); }
  void TearDown() override { Config::set_enabled(true); }
};

// ---------------------------------------------------------------------------
// cache4j: the racy_increment read/write pair and the publish-before-init
// payload/ready accesses (race1/2/3 + atomicity1 sites).
// ---------------------------------------------------------------------------

TEST_F(SaGoldenTest, CacheStaticCandidates) {
  const AnalysisResult result = analyze_paths({src_path("src/apps/cache")});
  const Candidate* counter = find_candidate(
      result, Candidate::Kind::kConflict, "counter", 23, 28);
  ASSERT_NE(counter, nullptr) << render_list(result.candidates);
  EXPECT_FALSE(counter->a_is_write);
  EXPECT_TRUE(counter->b_is_write);
  EXPECT_TRUE(counter->locks_a.empty());
  EXPECT_TRUE(counter->locks_b.empty());
  // The ConflictTrigger two lines above the read: the analyzer
  // rediscovered a bug Methodology I already annotated.
  EXPECT_FALSE(counter->existing.empty());

  // The atomicity1 shape: payload written after publication, read by a
  // concurrent get.
  EXPECT_NE(find_candidate(result, Candidate::Kind::kConflict, "payload",
                           60, 85),
            nullptr)
      << render_list(result.candidates);
  EXPECT_NE(
      find_candidate(result, Candidate::Kind::kConflict, "ready", 61, 84),
      nullptr)
      << render_list(result.candidates);
}

TEST_F(SaGoldenTest, CacheStaticCandidatesMatchEraser) {
  const AnalysisResult result = analyze_paths({src_path("src/apps/cache")});
  std::set<std::uint32_t> static_lines;
  for (const Candidate& c : result.candidates) {
    if (c.kind == Candidate::Kind::kConflict && c.subject == "counter") {
      static_lines.insert(c.site_a.line);
      static_lines.insert(c.site_b.line);
    }
  }
  ASSERT_FALSE(static_lines.empty());

  // Two puts of distinct keys from two threads both run the
  // unsynchronized size-counter increment: Eraser's SharedModified
  // empty-lockset report, at exactly the sites the analyzer mined.
  apps::cache::Cache cache(64);
  detect::EraserDetector eraser;
  {
    instr::ScopedListener registration(eraser);
    on_thread([&] { cache.put(1, 10); });
    on_thread([&] { cache.put(2, 20); });
  }
  const auto races = eraser.races();
  ASSERT_FALSE(races.empty());
  for (const auto& race : races) {
    EXPECT_EQ(basename_of(race.first.file), "cache.cc");
    EXPECT_EQ(basename_of(race.second.file), "cache.cc");
    EXPECT_TRUE(static_lines.count(race.first.line) != 0)
        << "dynamic race site " << race.first.str()
        << " not among static candidate sites";
    EXPECT_TRUE(static_lines.count(race.second.line) != 0)
        << "dynamic race site " << race.second.str()
        << " not among static candidate sites";
  }
}

// ---------------------------------------------------------------------------
// Jigsaw: the Fig. 2 crossed lock order (deadlock1), the second crossing
// (deadlock2), and the stopping/request_count races.
// ---------------------------------------------------------------------------

TEST_F(SaGoldenTest, JigsawStaticCandidates) {
  const AnalysisResult result =
      analyze_paths({src_path("src/apps/webserver")});
  const Candidate* fig2 = find_candidate(
      result, Candidate::Kind::kDeadlock, "csList <-> this", 68, 81);
  ASSERT_NE(fig2, nullptr) << render_list(result.candidates);
  EXPECT_FALSE(fig2->existing.empty());  // DeadlockTrigger sits nearby
  EXPECT_TRUE(result.lock_graph_has_cycle);

  EXPECT_NE(find_candidate(result, Candidate::Kind::kDeadlock,
                           "config <-> status", 92, 104),
            nullptr)
      << render_list(result.candidates);
  EXPECT_NE(find_candidate(result, Candidate::Kind::kConflict, "stopping_",
                           112, 135),
            nullptr)
      << render_list(result.candidates);
  EXPECT_NE(find_candidate(result, Candidate::Kind::kConflict,
                           "request_count_", 143, 148),
            nullptr)
      << render_list(result.candidates);
}

TEST_F(SaGoldenTest, JigsawStaticCandidateMatchesLockOrderDetector) {
  const AnalysisResult result =
      analyze_paths({src_path("src/apps/webserver")});
  const Candidate* fig2 = find_candidate(
      result, Candidate::Kind::kDeadlock, "csList <-> this", 68, 81);
  ASSERT_NE(fig2, nullptr);
  const std::set<std::uint32_t> static_lines{fig2->site_a.line,
                                             fig2->site_b.line};

  // Sequential legs: no real deadlock is possible, but the detector
  // still sees both crossing edges and predicts the 2-cycle.
  apps::webserver::SocketClientFactory factory;
  detect::LockOrderDetector lock_order;
  {
    instr::ScopedListener registration(lock_order);
    on_thread([&] { factory.client_connection_finished(2000ms); });
    on_thread([&] { factory.kill_clients(2000ms); });
  }
  const auto deadlocks = lock_order.deadlocks();
  ASSERT_EQ(deadlocks.size(), 1u);
  std::set<std::uint32_t> dynamic_lines;
  for (const auto& leg : deadlocks[0].legs) {
    EXPECT_EQ(basename_of(leg.site.file), "jigsaw.cc");
    dynamic_lines.insert(leg.site.line);
  }
  EXPECT_EQ(dynamic_lines, static_lines);
}

// ---------------------------------------------------------------------------
// log4j AsyncAppender: the §5 contention pairs on the buffer lock —
// including the (setBufferSize, dispatch) pair whose resolution order
// reproduces the missed-notification stall.
// ---------------------------------------------------------------------------

TEST_F(SaGoldenTest, LoggingStaticCandidates) {
  const AnalysisResult result = analyze_paths({src_path("src/apps/logging")});
  // The paper's (236, 309) pair: set_buffer_size's acquisition vs the
  // dispatcher's.
  EXPECT_NE(find_candidate(result, Candidate::Kind::kContention,
                           "AsyncAppender.buffer", 37, 52),
            nullptr)
      << render_list(result.candidates);
  // loggers.cc contributes crossed-lock candidates too.
  const bool any_deadlock = std::any_of(
      result.candidates.begin(), result.candidates.end(),
      [](const Candidate& c) {
        return c.kind == Candidate::Kind::kDeadlock;
      });
  EXPECT_TRUE(any_deadlock) << render_list(result.candidates);
}

TEST_F(SaGoldenTest, LoggingStaticCandidatesMatchContentionDetector) {
  const AnalysisResult result = analyze_paths({src_path("src/apps/logging")});
  std::set<std::pair<std::uint32_t, std::uint32_t>> static_pairs;
  for (const Candidate& c : result.candidates) {
    if (c.kind == Candidate::Kind::kContention &&
        c.subject == "AsyncAppender.buffer") {
      static_pairs.insert({std::min(c.site_a.line, c.site_b.line),
                           std::max(c.site_a.line, c.site_b.line)});
    }
  }
  ASSERT_FALSE(static_pairs.empty());

  // Three threads exercise append / set_buffer_size / dispatch_one once
  // each; every dynamic contention pair on the buffer lock must be a
  // statically mined candidate.
  apps::logging::AsyncAppender appender(4);
  detect::ContentionDetector contention;
  {
    instr::ScopedListener registration(contention);
    on_thread([&] { appender.append(1, 2000ms); });
    on_thread([&] { appender.set_buffer_size(8); });
    on_thread([&] { EXPECT_TRUE(appender.dispatch_one()); });
  }
  std::size_t checked = 0;
  for (const auto& report : contention.contentions()) {
    if (report.lock != appender.lock_id()) continue;
    EXPECT_EQ(basename_of(report.site_a.file), "async_appender.cc");
    const auto pair =
        std::make_pair(std::min(report.site_a.line, report.site_b.line),
                       std::max(report.site_a.line, report.site_b.line));
    EXPECT_TRUE(static_pairs.count(pair) != 0)
        << "dynamic contention pair (" << pair.first << ", " << pair.second
        << ") not among static candidates";
    ++checked;
  }
  EXPECT_EQ(checked, 3u);  // {append, set_buffer_size, dispatch} pairs
}

// ---------------------------------------------------------------------------
// Spec round-trip: the emitted candidate spec for ALL replica apps loads
// into the engine unchanged.
// ---------------------------------------------------------------------------

TEST_F(SaGoldenTest, AppsCandidateSpecRoundTripsThroughEngine) {
  const AnalysisResult result = analyze_paths({src_path("src/apps")});
  ASSERT_GE(result.candidates.size(), 6u);
  const std::string spec_text = render_spec(result.candidates, 0);
  const BreakpointSpec spec = BreakpointSpec::parse(spec_text);
  EXPECT_EQ(spec.size(), result.candidates.size());
  for (const Candidate& c : result.candidates) {
    const SpecOverride* entry = spec.find(c.spec_name);
    ASSERT_NE(entry, nullptr) << c.spec_name;
    EXPECT_EQ(entry->from, SpecOrigin::kStatic);
  }
  spec.install();
  BreakpointSpec::clear_installed();
}

// ---------------------------------------------------------------------------
// Golden candidate lists (the CI self-lint contract): the analyzer's
// --list output over each app is byte-stable.  Regenerate with
//   build/tools/cbp-sa --list src/apps/<app> > tests/golden/<app>.list
// ---------------------------------------------------------------------------

// Strings, not `const char*`: gtest prints the parameter into each
// discovered ctest name, and a pointer would print its load address,
// which differs from one run of the binary to the next.
class SaGoldenListTest : public SaGoldenTest,
                         public ::testing::WithParamInterface<
                             std::pair<std::string, std::string>> {};

TEST_P(SaGoldenListTest, ListMatchesGolden) {
  const auto [golden_name, app_dir] = GetParam();
  const std::string golden_path =
      src_path(std::string("tests/golden/") + golden_name + ".list");
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " — regenerate with: cbp-sa --list " << app_dir;
  std::ostringstream buffer;
  buffer << in.rdbuf();

  const AnalysisResult result = analyze_paths({src_path(app_dir)});
  EXPECT_EQ(render_list(result.candidates), buffer.str())
      << "candidate list drifted from " << golden_path
      << " — regenerate with: cbp-sa --list " << app_dir;
}

// The interprocedural fixture exercises lockset propagation end to end
// (helper deadlock revealed, all-callers-hold suppression, mixed-caller
// conflict kept, check-then-act atomicity); its --interproc --list
// output is pinned the same way.  Regenerate with
//   build/tools/cbp-sa --interproc --list tests/sa_fixtures/interproc
TEST_F(SaGoldenTest, InterprocFixtureListMatchesGolden) {
  const std::string golden_path = src_path("tests/golden/interproc.list");
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden file " << golden_path;
  std::ostringstream buffer;
  buffer << in.rdbuf();

  AnalysisOptions options;
  options.interprocedural = true;
  const AnalysisResult result =
      analyze_paths({src_path("tests/sa_fixtures/interproc")}, options);
  EXPECT_EQ(render_list(result.candidates), buffer.str())
      << "candidate list drifted from " << golden_path
      << " — regenerate with: cbp-sa --interproc --list "
         "tests/sa_fixtures/interproc";

  // The fixture's crossed helper locks also surface as a ranked cycle.
  ASSERT_EQ(result.cycles.size(), 1u);
  EXPECT_EQ(result.cycles[0].length(), 2u);
  EXPECT_EQ(result.cycles[0].locks,
            (std::vector<std::string>{"mu_a", "mu_b"}));
}

INSTANTIATE_TEST_SUITE_P(
    Apps, SaGoldenListTest,
    ::testing::Values(
        std::make_pair("cache", "src/apps/cache"),
        std::make_pair("jigsaw", "src/apps/webserver"),
        std::make_pair("logging", "src/apps/logging")),
    [](const ::testing::TestParamInfo<SaGoldenListTest::ParamType>& p) {
      return p.param.first;
    });

}  // namespace
}  // namespace cbp::sa
