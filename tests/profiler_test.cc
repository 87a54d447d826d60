// Tests for the continuous profiling plane (DESIGN.md §13): the stage
// registry, folded-stack export, dladdr symbolization, per-stage sample
// attribution on stage-registered threads running the serial item-CF
// model, start/stop/start signal
// safety (this file is part of the TSan `concurrent` workload), and
// ProfiledMutex wait accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/profiled_mutex.h"
#include "common/stage.h"
#include "core/itemcf/item_cf.h"
#include "obs/profiler.h"

namespace tencentrec {
namespace {

using obs::Profiler;

// A frame the symbolization test can look up: extern + noinline so the
// symbol survives optimization and (thanks to CMAKE_ENABLE_EXPORTS) lands
// in the dynamic symbol table dladdr searches.
extern "C" __attribute__((noinline)) int TrProfilerTestAnchor(int x) {
  // Volatile sink defeats whole-function folding.
  volatile int v = x * 2 + 1;
  return v;
}

core::UserAction MakeAction(core::UserId user, core::ItemId item,
                            EventTime ts) {
  core::UserAction a;
  a.user = user;
  a.item = item;
  a.action = core::ActionType::kClick;
  a.timestamp = ts;
  return a;
}

// Burns CPU on `threads` workers registered under `stage`, each streaming a
// seeded click stream through its own serial PracticalItemCf, until Stop()
// (or destruction). The state stays bounded: 17 users x 23 items in one
// session.
class CfLoad {
 public:
  CfLoad(const std::string& stage, int threads) {
    for (int t = 0; t < threads; ++t) {
      workers_.emplace_back([this, stage, t] {
        RegisterStageThread(stage);
        core::PracticalItemCf cf(core::PracticalItemCf::Options{});
        EventTime ts = 0;
        while (!stop_.load(std::memory_order_relaxed)) {
          for (int u = 0; u < 64; ++u) {
            for (int i = 0; i < 8; ++i) {
              cf.ProcessAction(MakeAction(
                  static_cast<core::UserId>(u % 17),
                  static_cast<core::ItemId>(1 + (u + i + t) % 23), ++ts));
            }
          }
        }
      });
    }
  }
  CfLoad(const CfLoad&) = delete;
  CfLoad& operator=(const CfLoad&) = delete;
  ~CfLoad() { Stop(); }

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

// Waits until the profiler has accumulated `min_samples` beyond `baseline`
// (or a generous timeout) while a CfLoad burns CPU.
void WaitForSamples(uint64_t baseline, uint64_t min_samples) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (Profiler::Instance().total_samples() - baseline < min_samples &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(StageRegistryTest, InternIsIdempotentAndNamed) {
  const uint16_t a = InternStage("stage-test.alpha");
  const uint16_t b = InternStage("stage-test.alpha");
  const uint16_t c = InternStage("stage-test.beta");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, 0);
  EXPECT_EQ(StageName(a), "stage-test.alpha");
  EXPECT_EQ(StageName(0), "unregistered");
  EXPECT_EQ(StageName(9999), "unregistered");
}

TEST(StageRegistryTest, RegisterThreadPublishesStageAndSlot) {
  uint16_t seen_stage = 0;
  int seen_slot = -1;
  bool visited = false;
  std::thread worker([&] {
    const uint16_t id = RegisterStageThread("stage-test.worker");
    seen_stage = CurrentStage();
    seen_slot = CurrentStageSlot();
    EXPECT_EQ(id, seen_stage);
    VisitStageThreads([&](const StageThreadInfo& info) {
      if (info.stage == id) visited = true;
    });
  });
  worker.join();
  EXPECT_EQ(StageName(seen_stage), "stage-test.worker");
  EXPECT_GE(seen_slot, 0);
  EXPECT_TRUE(visited);
  // The slot was released on thread exit: nobody carries the stage now.
  bool still_there = false;
  VisitStageThreads([&](const StageThreadInfo& info) {
    if (info.stage == seen_stage) still_there = true;
  });
  EXPECT_FALSE(still_there);
}

TEST(ProfilerTest, FoldedStackRoundTrip) {
  // Hand-built aggregate: the folded exporter must emit root-first
  // semicolon-joined frames with the stage as the synthetic root and the
  // count last — the exact shape flamegraph.pl consumes.
  Profiler::Aggregate agg;
  Profiler::StackSample s;
  s.stage = InternStage("folded-test.stage");
  // Innermost-first, as the handler captures: anchor called from main.
  s.pcs = {reinterpret_cast<uintptr_t>(&TrProfilerTestAnchor) + 4};
  s.count = 42;
  agg.total = 42;
  agg.stacks.push_back(s);

  const std::string folded = Profiler::Folded(agg);
  ASSERT_FALSE(folded.empty());

  // One line, "<root>;<frame> <count>\n".
  std::istringstream lines(folded);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const size_t space = line.rfind(' ');
  ASSERT_NE(space, std::string::npos);
  EXPECT_EQ(line.substr(space + 1), "42");
  const std::string frames = line.substr(0, space);
  ASSERT_EQ(frames.rfind("folded-test.stage;", 0), 0u);
  EXPECT_NE(frames.find("TrProfilerTestAnchor"), std::string::npos);
  // Nothing else follows.
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(ProfilerTest, SymbolizesKnownLocalFrame) {
  // +4: past the function's first byte, the way a sampled pc or return
  // address lands mid-function; SymbolizePc backs up one byte itself.
  const std::string sym = Profiler::SymbolizePc(
      reinterpret_cast<uintptr_t>(&TrProfilerTestAnchor) + 4);
  EXPECT_NE(sym.find("TrProfilerTestAnchor"), std::string::npos) << sym;
  // Unknown addresses render as hex rather than failing.
  const std::string unknown = Profiler::SymbolizePc(0x1234);
  EXPECT_EQ(unknown.rfind("0x", 0), 0u) << unknown;
}

TEST(ProfilerTest, AttributesSamplesToRegisteredStages) {
  RegisterStageThread("profiler-test.driver");
  CfLoad load("proftest.cf", 2);

  Profiler& prof = Profiler::Instance();
  Profiler::Options popts;
  popts.hz = 997;  // dense sampling keeps this test fast on one core
  ASSERT_TRUE(prof.Enabled());
  ASSERT_TRUE(prof.Start(popts));

  const uint64_t base_total = prof.total_samples();
  const uint64_t base_unattributed = prof.stage_samples(0);
  WaitForSamples(base_total, 200);
  prof.Stop();
  load.Stop();

  const uint64_t total = prof.total_samples() - base_total;
  const uint64_t unattributed = prof.stage_samples(0) - base_unattributed;
  ASSERT_GE(total, 200u) << "profiler produced too few samples";
  // The plane's bar: >=90% of samples attributed to registered stages.
  // Timers only ever attach to registered threads, so in practice this is
  // ~100%; the bound guards the attribution plumbing end to end.
  EXPECT_LE(unattributed * 10, total)
      << "unattributed " << unattributed << " of " << total;

  // The workers' stage must show up by its registered name.
  EXPECT_GT(prof.stage_samples(InternStage("proftest.cf")), 0u);
}

TEST(ProfilerTest, CollectWindowProducesFoldedStacks) {
  RegisterStageThread("profiler-test.driver");

  Profiler& prof = Profiler::Instance();
  Profiler::Options popts;
  popts.hz = 997;
  ASSERT_TRUE(prof.Start(popts));

  // Keep CF workers busy in the background while a window is collected.
  CfLoad load("profwin.cf", 2);
  const Profiler::Aggregate agg = prof.CollectWindow(1.0);
  load.Stop();
  prof.Stop();

  ASSERT_GT(agg.total, 0u);
  ASSERT_FALSE(agg.stacks.empty());
  const std::string folded = Profiler::Folded(agg);
  // Every line carries >=1 frame and a positive trailing count.
  std::istringstream lines(folded);
  std::string line;
  size_t n_lines = 0;
  uint64_t count_sum = 0;
  while (std::getline(lines, line)) {
    ++n_lines;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    count_sum += std::stoull(line.substr(space + 1));
    EXPECT_FALSE(line.substr(0, space).empty());
  }
  EXPECT_EQ(n_lines, agg.stacks.size());
  EXPECT_EQ(count_sum, agg.total);
  // JSON rollup agrees on the total.
  const std::string json = Profiler::Json(agg);
  EXPECT_NE(json.find("\"total_samples\":"), std::string::npos);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);
}

TEST(ProfilerTest, StartStopStartIsSignalSafe) {
  // Exercises the stop/start races TSan + the late-signal hazard: timers
  // deleted while signals may be in flight, handler gated by the running
  // flag, new timers re-armed on live threads. Runs under the `concurrent`
  // label, so the TSan build checks the handler/collector rings too.
  RegisterStageThread("profiler-test.driver");
  // The workers outlive every cycle: each Start re-arms timers on live
  // threads, and the load keeps running between Stop and the next Start,
  // so late signals land on busy threads and must be inert.
  CfLoad load("profcycle.cf", 2);

  Profiler& prof = Profiler::Instance();
  Profiler::Options popts;
  popts.hz = 997;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(prof.Start(popts));
    EXPECT_TRUE(prof.running());
    EXPECT_FALSE(prof.Start(popts));  // double-start refused
    const uint64_t base = prof.total_samples();
    WaitForSamples(base, 20);
    prof.Stop();
    EXPECT_FALSE(prof.running());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  load.Stop();

  // Kill switch: disabled profiler refuses to start.
  prof.SetEnabled(false);
  EXPECT_FALSE(prof.Start(popts));
  prof.SetEnabled(true);
}

TEST(ProfiledMutexTest, CountsUncontendedAcquisitions) {
  SetContentionProfilingEnabled(true);
  ProfiledMutex mu("mutex-test.uncontended");
  ContentionSite* site = RegisterContentionSite("mutex-test.uncontended");
  const uint64_t base = site->acquisitions();
  for (int i = 0; i < 10; ++i) {
    std::lock_guard<ProfiledMutex> lock(mu);
  }
  EXPECT_EQ(site->acquisitions() - base, 10u);
  EXPECT_EQ(site->contended(), 0u);
  EXPECT_EQ(site->wait_us_total(), 0u);
}

TEST(ProfiledMutexTest, RecordsWaitAndHolderStage) {
  SetContentionProfilingEnabled(true);
  ProfiledMutex mu("mutex-test.contended");
  ContentionSite* site = RegisterContentionSite("mutex-test.contended");

  std::atomic<bool> held{false};
  std::thread holder([&] {
    RegisterStageThread("mutex-test.holder");
    std::lock_guard<ProfiledMutex> lock(mu);
    held.store(true, std::memory_order_release);
    // Hold long enough that the waiter measurably blocks.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  while (!held.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  {
    // Contended acquisition on this thread; blame goes to the holder stage.
    std::lock_guard<ProfiledMutex> lock(mu);
  }
  holder.join();

  const uint16_t holder_stage = InternStage("mutex-test.holder");
  EXPECT_GE(site->contended(), 1u);
  EXPECT_GT(site->wait_us_total(), 0u);
  EXPECT_GT(site->wait_us_max(), 0u);
  EXPECT_GT(site->wait_us_by_holder(holder_stage), 0u);
  ASSERT_NE(site->wait_hist(), nullptr);
  EXPECT_GE(site->wait_hist()->Snap().count, 1u);

  // The JSON rollup names the site and the blamed stage.
  const std::string json = ContentionReportJson();
  EXPECT_NE(json.find("\"mutex-test.contended\""), std::string::npos);
  EXPECT_NE(json.find("mutex-test.holder"), std::string::npos);
}

TEST(ProfiledMutexTest, DisabledModeSkipsAccounting) {
  SetContentionProfilingEnabled(false);
  ProfiledMutex mu("mutex-test.disabled");
  ContentionSite* site = RegisterContentionSite("mutex-test.disabled");
  {
    std::lock_guard<ProfiledMutex> lock(mu);
  }
  EXPECT_EQ(site->acquisitions(), 0u);
  SetContentionProfilingEnabled(true);
}

}  // namespace
}  // namespace tencentrec
