// cbp-repro's flag contract (bench/cbp_repro.cc): an experiment writes
// its rows to --json as a document obs/json reads back, with a host
// block and one object per row; a flag an experiment cannot honour
// exits 2 instead of being ignored, in cbp-repro and in the two
// standalone benches (bench_hightraffic, bench_prefork) alike.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace cbp {
namespace {

/// Runs `binary` with `args`, output discarded; returns its exit status.
int exit_status(const char* binary, const std::string& args) {
  const std::string command =
      std::string(binary) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int repro(const std::string& args) { return exit_status(CBP_REPRO, args); }

TEST(ReproContract, JsonHasHostBlockAndOneObjectPerRow) {
  for (const std::string experiment : {"precision", "explore"}) {
    const std::string path = ::testing::TempDir() + "cbp-repro-" +
                             experiment + "-" +
                             std::to_string(::getpid()) + ".json";
    ASSERT_EQ(repro(experiment + " 1 --clock=virtual --json " + path), 0);
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    std::string error;
    const auto doc = obs::json::parse(text.str(), error);
    ASSERT_NE(doc, nullptr) << experiment << ": " << error;

    const auto* host = doc->get("host");
    ASSERT_NE(host, nullptr) << experiment;
    for (const char* field : {"nproc", "cpu", "compiler", "build_type", "rev"}) {
      EXPECT_NE(host->get(field), nullptr) << experiment << " host." << field;
    }
    const auto* results = doc->get("results");
    ASSERT_TRUE(results != nullptr && results->is_array()) << experiment;
    ASSERT_FALSE(results->array.empty()) << experiment;
    for (const auto& row : results->array) {
      ASSERT_TRUE(row->is_object()) << experiment;
      for (const char* field :
           {"name", "threads", "value", "unit", "n", "seed", "clock"}) {
        ASSERT_NE(row->get(field), nullptr) << experiment << " ." << field;
      }
      EXPECT_EQ(row->get("clock")->string, "virtual");
      if (row->get("unit")->string != "probability") continue;
      const auto* interval = row->get("interval");
      ASSERT_TRUE(interval != nullptr && interval->is_array() &&
                  interval->array.size() == 2)
          << row->get("name")->string;
      const double value = row->get("value")->number;
      EXPECT_LE(interval->array[0]->number, value + 1e-6);
      EXPECT_GE(interval->array[1]->number, value - 1e-6);
      EXPECT_GT(row->get("n")->number, 0.0);
    }
  }
}

TEST(ReproContract, FlagAnExperimentCannotHonourExitsTwo) {
  for (const std::string experiment : {"model", "replay"}) {
    EXPECT_EQ(repro(experiment + " 1 --clock=virtual"), 2) << experiment;
  }
  for (const std::string experiment :
       {"model", "baselines", "replay", "explore"}) {
    EXPECT_EQ(repro(experiment + " 1 --trial-jobs=2"), 2) << experiment;
  }
  EXPECT_EQ(repro("table1 1 --clock=sideways"), 2);
  EXPECT_EQ(repro("table1 1 --json"), 2);
  EXPECT_EQ(repro("no-such-experiment"), 2);
  // One run (and --quick), so that a bench which stops refusing costs
  // seconds here, not minutes.
  for (const std::string flag : {"--clock=virtual", "--trial-jobs=2"}) {
    EXPECT_EQ(exit_status(BENCH_HIGHTRAFFIC, "--quick 1 " + flag), 2) << flag;
    EXPECT_EQ(exit_status(BENCH_PREFORK, "1 " + flag), 2) << flag;
  }
}

}  // namespace
}  // namespace cbp
