#include "apps/httpdlike/httpd.h"

#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"

namespace cbp::apps::httpdlike {

// ---------------------------------------------------------------------------
// AccessLog
// ---------------------------------------------------------------------------

void AccessLog::log_request(int id, bool armed) {
  {
    instr::TrackedLock lock(mu_);
    buffer_ += "REQ" + std::to_string(id) + " ";
  }
  // SEEDED BUG (#25520 shape): the line is completed by a SECOND locked
  // append; a peer's appends interleave here and garble the line.
  if (armed) {
    ConflictTrigger trigger(kLogBp, this);
    trigger.trigger_here(/*is_first_action=*/true);  // symmetric sites
  }
  {
    instr::TrackedLock lock(mu_);
    buffer_ += "OK" + std::to_string(id) + ";";
  }
}

std::vector<std::string> AccessLog::lines() const {
  std::string snapshot;
  {
    instr::TrackedLock lock(mu_);
    snapshot = buffer_;
  }
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t split = snapshot.find(';', start);
    if (split == std::string::npos) break;
    out.push_back(snapshot.substr(start, split - start));
    start = split + 1;
  }
  return out;
}

int AccessLog::corrupt_lines() const {
  int corrupt = 0;
  for (const std::string& line : lines()) {
    // A clean line is exactly "REQ<id> OK<id>".
    const std::size_t req = line.find("REQ");
    const std::size_t ok = line.find("OK");
    if (req == std::string::npos || ok == std::string::npos) {
      ++corrupt;
      continue;
    }
    const std::string req_id =
        line.substr(req + 3, line.find(' ', req) - (req + 3));
    const std::string ok_id = line.substr(ok + 2);
    if (req_id != ok_id || line.find("REQ", req + 1) != std::string::npos) {
      ++corrupt;
    }
  }
  return corrupt;
}

RunOutcome run_log_corruption(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);

  RunOutcome outcome;
  rt::Stopwatch clock;
  AccessLog log;
  const int requests = std::max(2, static_cast<int>(4 * options.work_scale));
  rt::StartGate gate;
  auto worker = [&](int base, std::chrono::microseconds skew) {
    gate.wait();
    rt::clock_sleep_for(skew);
    for (int i = 0; i < requests; ++i) {
      log.log_request(base + i, options.breakpoints);
    }
  };
  rt::Thread a(worker, 100, std::chrono::microseconds::zero());
  rt::Thread b(worker, 200, kArrivalSkew);
  gate.open();
  a.join();
  b.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  const int corrupt = log.corrupt_lines();
  if (corrupt > 0) {
    outcome.artifact = rt::Artifact::kLogCorruption;
    outcome.detail = std::to_string(corrupt) + " garbled access-log lines";
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Buffer overflow
// ---------------------------------------------------------------------------

RunOutcome run_buffer_overflow(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);

  RunOutcome outcome;
  rt::Stopwatch clock;

  constexpr int kCapacity = 64;
  constexpr int kChunk = 16;
  std::vector<char> connection_buffer(kCapacity, 0);
  instr::SharedVar<int> length{kCapacity - kChunk};  // one chunk of room
  std::string crash;
  rt::StartGate gate;

  // TOCTOU append: the capacity check uses a cached length; the write
  // offset is re-read after the peer may have appended.
  auto append = [&](bool is_first) {
    const int cached = length.read();
    // bp1: align both workers right after their (now shared-stale) check
    // input reads.
    {
      ConflictTrigger bp1(kOvfBp1, &connection_buffer);
      bp1.trigger_here(/*is_first_action=*/true);  // symmetric
    }
    if (cached + kChunk > kCapacity) return;  // check (passes for both)
    // bp2: the designated first worker performs its whole append first.
    {
      ConflictTrigger bp2(kOvfBp2, &connection_buffer);
      bp2.trigger_here(is_first);
    }
    if (!is_first) {
      // bp3: and its length publication must be visible before the
      // second worker picks its write offset.
      ConflictTrigger bp3(kOvfBp3, &connection_buffer);
      bp3.trigger_here(/*is_first_action=*/false);
    }
    const int offset = length.read();  // fresh (possibly advanced) offset
    for (int i = 0; i < kChunk; ++i) {
      const int position = offset + i;
      if (position >= kCapacity) {
        throw rt::SimulatedCrash(
            "buffer overflow: write at offset " + std::to_string(position) +
            " beyond capacity " + std::to_string(kCapacity));
      }
      connection_buffer[static_cast<std::size_t>(position)] = 'x';
    }
    length.write(offset + kChunk);
    if (is_first) {
      ConflictTrigger bp3(kOvfBp3, &connection_buffer);
      bp3.trigger_here(/*is_first_action=*/true);
    }
  };

  rt::Thread w1([&] {
    gate.wait();
    try {
      append(/*is_first=*/true);
    } catch (const rt::SimulatedCrash& e) {
      crash = e.what();
    }
  });
  rt::Thread w2([&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew);
    try {
      append(/*is_first=*/false);
    } catch (const rt::SimulatedCrash& e) {
      crash = e.what();
    }
  });
  gate.open();
  w1.join();
  w2.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (!crash.empty()) {
    outcome.artifact = rt::Artifact::kCrash;
    outcome.detail = crash;
  }
  return outcome;
}

}  // namespace cbp::apps::httpdlike
