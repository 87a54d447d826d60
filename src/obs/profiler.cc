#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>

#include "common/metrics.h"

// Older glibc exposes the SIGEV_THREAD_ID target tid only through the
// union member, without the POSIX-proposed accessor macro.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace tencentrec {
namespace obs {
namespace {

constexpr int kRingEntries = 1024;  // power of two, ~200ms of headroom even
                                    // at the smoke test's ~1kHz rate
constexpr uint64_t kRingMask = kRingEntries - 1;

// One captured sample. All fields are relaxed atomics so the handler's
// stores and the collector's loads are both race-free under TSan and
// async-signal-safe; a wrap-around overwrite concurrent with a drain can
// at worst mix two stacks' frames, never tear a word.
struct SampleEntry {
  std::atomic<uint32_t> depth{0};
  std::atomic<uint32_t> stage{0};
  std::atomic<uintptr_t> pcs[Profiler::kMaxFrames] = {};
};

// Per-thread-slot sample ring. The handler (owner thread only) writes
// entries and advances head; the single collector owns tail. stack_lo/hi
// bound the frame-pointer walk so every dereference in the handler lands
// in mapped stack memory.
struct SampleRing {
  std::atomic<uint64_t> head{0};
  uint64_t tail = 0;  // collector-only
  std::atomic<uintptr_t> stack_lo{0};
  std::atomic<uintptr_t> stack_hi{0};
  SampleEntry entries[kRingEntries];
};

// Handler-visible state: plain file-scope statics (no lazy init in the
// signal path).
std::atomic<bool> g_running{false};
std::atomic<bool> g_enabled{true};
std::atomic<int> g_hz{97};
std::atomic<uint64_t> g_total_samples{0};
std::atomic<uint64_t> g_truncated{0};
std::atomic<uint64_t> g_stage_samples[kMaxStages] = {};
std::atomic<SampleRing*> g_rings[kMaxStageThreads] = {};

// Lock order: Start/Stop serialize on g_control_mu; the stage-registry
// lock (held around lifecycle hooks and VisitStageThreads) nests inside
// it; g_timer_mu nests innermost.
std::mutex g_control_mu;
std::mutex g_timer_mu;
std::mutex g_collect_mu;

struct TimerSlot {
  bool armed = false;
  timer_t timer{};
};
TimerSlot g_timers[kMaxStageThreads];

void SigprofHandler(int /*sig*/, siginfo_t* /*info*/, void* ucv) {
  if (!g_running.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;

  const uint16_t raw_stage = CurrentStage();
  const uint16_t stage = raw_stage < kMaxStages ? raw_stage : 0;
  g_total_samples.fetch_add(1, std::memory_order_relaxed);
  g_stage_samples[stage].fetch_add(1, std::memory_order_relaxed);

  // Acquire pairs with EnsureRing's release store: the ring may have been
  // allocated by another thread (Start) that this one never otherwise
  // synchronized with, and its fields must be visible before the reads
  // below. A lock-free atomic load is async-signal-safe.
  const int slot = CurrentStageSlot();
  SampleRing* ring = (slot >= 0 && slot < kMaxStageThreads)
                         ? g_rings[slot].load(std::memory_order_acquire)
                         : nullptr;
  if (ring == nullptr) {
    errno = saved_errno;
    return;
  }

  uintptr_t frames[Profiler::kMaxFrames];
  int depth = 0;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(ucv);
  const uintptr_t pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const uintptr_t sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  uintptr_t fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  frames[depth++] = pc;

  // Frame-pointer walk (the tree is compiled -fno-omit-frame-pointer).
  // Every load is bounds-checked into [max(sp, stack_lo), stack_hi), so a
  // bogus rbp (leaf frame, foreign library code) terminates the walk
  // instead of faulting; the chain must also strictly ascend.
  const uintptr_t lo = ring->stack_lo.load(std::memory_order_relaxed);
  const uintptr_t hi = ring->stack_hi.load(std::memory_order_relaxed);
  const uintptr_t floor_addr = sp > lo ? sp : lo;
  while (depth < Profiler::kMaxFrames) {
    if (fp < floor_addr || (fp & 0x7) != 0 ||
        fp + 2 * sizeof(uintptr_t) > hi) {
      break;
    }
    const uintptr_t ret =
        *reinterpret_cast<const uintptr_t*>(fp + sizeof(uintptr_t));
    const uintptr_t next = *reinterpret_cast<const uintptr_t*>(fp);
    if (ret < 0x1000) break;  // return into the zero page: not a frame
    frames[depth++] = ret;
    if (next <= fp) break;
    fp = next;
  }
  if (depth == Profiler::kMaxFrames) {
    g_truncated.fetch_add(1, std::memory_order_relaxed);
  }
#else
  (void)ucv;
  frames[depth++] = 0;  // stage attribution still works without a stack
#endif

  const uint64_t h = ring->head.load(std::memory_order_relaxed);
  SampleEntry& e = ring->entries[h & kRingMask];
  e.stage.store(stage, std::memory_order_relaxed);
  for (int i = 0; i < depth; ++i) {
    e.pcs[i].store(frames[i], std::memory_order_relaxed);
  }
  e.depth.store(static_cast<uint32_t>(depth), std::memory_order_relaxed);
  ring->head.store(h + 1, std::memory_order_release);
  errno = saved_errno;
}

void InstallHandlerOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = SigprofHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
  });
}

// Allocates (once per slot) the ring and refreshes the slot occupant's
// stack bounds. Runs on a normal thread context, never in the handler.
void EnsureRing(const StageThreadInfo& info) {
  if (info.slot >= kMaxStageThreads) return;
  SampleRing* ring = g_rings[info.slot].load(std::memory_order_acquire);
  if (ring == nullptr) {
    ring = new SampleRing();
    g_rings[info.slot].store(ring, std::memory_order_release);
  }
  pthread_attr_t attr;
  if (pthread_getattr_np(info.handle, &attr) == 0) {
    void* addr = nullptr;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0 && addr != nullptr) {
      ring->stack_lo.store(reinterpret_cast<uintptr_t>(addr),
                           std::memory_order_relaxed);
      ring->stack_hi.store(reinterpret_cast<uintptr_t>(addr) + size,
                           std::memory_order_relaxed);
    }
    pthread_attr_destroy(&attr);
  }
}

bool ArmTimer(const StageThreadInfo& info) {
  if (info.slot >= kMaxStageThreads) return false;
  std::lock_guard<std::mutex> lock(g_timer_mu);
  TimerSlot& ts = g_timers[info.slot];
  if (ts.armed) return true;

  clockid_t clk;
  if (pthread_getcpuclockid(info.handle, &clk) != 0) return false;

  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = info.tid;

  timer_t timer;
  if (timer_create(clk, &sev, &timer) != 0) return false;

  const long period_ns =
      1000000000L / std::max(1, g_hz.load(std::memory_order_relaxed));
  struct itimerspec its;
  std::memset(&its, 0, sizeof(its));
  its.it_interval.tv_sec = period_ns / 1000000000L;
  its.it_interval.tv_nsec = period_ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(timer, 0, &its, nullptr) != 0) {
    timer_delete(timer);
    return false;
  }
  ts.armed = true;
  ts.timer = timer;
  return true;
}

void DisarmTimer(uint16_t slot) {
  if (slot >= kMaxStageThreads) return;
  std::lock_guard<std::mutex> lock(g_timer_mu);
  TimerSlot& ts = g_timers[slot];
  if (!ts.armed) return;
  timer_delete(ts.timer);
  ts.armed = false;
}

void DisarmAllTimers() {
  std::lock_guard<std::mutex> lock(g_timer_mu);
  for (TimerSlot& ts : g_timers) {
    if (!ts.armed) continue;
    timer_delete(ts.timer);
    ts.armed = false;
  }
}

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                         ? static_cast<size_t>(n)
                         : sizeof(buf) - 1);
  }
}

// Stack identity for dedup: [stage, pc0, pc1, ...]. An ordered map keeps
// Folded() output deterministic for a given sample set.
using StackCounts = std::map<std::vector<uintptr_t>, uint64_t>;

// Drains every ring into (agg, stacks). Caller holds g_collect_mu — tail
// cursors are collector-owned.
void DrainAll(Profiler::Aggregate* agg, StackCounts* stacks) {
  for (int slot = 0; slot < kMaxStageThreads; ++slot) {
    SampleRing* ring = g_rings[slot].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t tail = ring->tail;
    if (head - tail > kRingEntries) {
      agg->dropped += head - tail - kRingEntries;
      tail = head - kRingEntries;
    }
    std::vector<uintptr_t> key;
    for (; tail != head; ++tail) {
      const SampleEntry& e = ring->entries[tail & kRingMask];
      const uint32_t depth = e.depth.load(std::memory_order_relaxed);
      if (depth == 0 || depth > Profiler::kMaxFrames) continue;
      const uint32_t stage = e.stage.load(std::memory_order_relaxed);
      key.clear();
      key.reserve(depth + 1);
      key.push_back(stage);
      for (uint32_t i = 0; i < depth; ++i) {
        key.push_back(e.pcs[i].load(std::memory_order_relaxed));
      }
      ++(*stacks)[key];
      ++agg->total;
      if (stage < kMaxStages) ++agg->stage_samples[stage];
    }
    ring->tail = head;
  }
}

// Fast-forwards every tail to head, discarding samples from before the
// window opened. Caller holds g_collect_mu.
void DiscardPending() {
  for (int slot = 0; slot < kMaxStageThreads; ++slot) {
    SampleRing* ring = g_rings[slot].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    ring->tail = ring->head.load(std::memory_order_acquire);
  }
}

// Folded frames must not contain the frame separator or newlines;
// flamegraph.pl splits frames on ';' and takes the trailing integer as
// the count, so spaces inside demangled names are fine.
void SanitizeFrame(std::string* name) {
  for (char& c : *name) {
    if (c == ';') c = ':';
    if (c == '\n' || c == '\r') c = ' ';
  }
}

uint64_t g_last_published[kMaxStages] = {};
std::mutex g_publish_mu;

}  // namespace

Profiler::Profiler() {
  // Lifecycle hooks run under the stage-registry lock: a thread that
  // registers while the profiler is running arms its own timer (the hook
  // executes on the registering thread); an exiting thread disarms its
  // timer before its CPU clock dies with it.
  SetStageThreadHooks(
      [](const StageThreadInfo& info) {
        if (!g_running.load(std::memory_order_acquire)) return;
        EnsureRing(info);
        ArmTimer(info);
      },
      [](const StageThreadInfo& info) { DisarmTimer(info.slot); });
}

Profiler& Profiler::Instance() {
  static Profiler* p = new Profiler();
  return *p;
}

void Profiler::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
  if (!enabled) Stop();
}

bool Profiler::Enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

bool Profiler::Start(const Options& opts) {
  std::lock_guard<std::mutex> control(g_control_mu);
  if (!g_enabled.load(std::memory_order_relaxed)) return false;
  if (g_running.load(std::memory_order_relaxed)) return false;
  InstallHandlerOnce();
  g_hz.store(std::min(10000, std::max(1, opts.hz)),
             std::memory_order_relaxed);
  // Publish the running flag before visiting, so a thread registering
  // concurrently is armed by its hook even if the visit misses it; ArmTimer
  // is idempotent per slot, so double-arming is impossible.
  g_running.store(true, std::memory_order_release);
  VisitStageThreads([](const StageThreadInfo& info) {
    EnsureRing(info);
    ArmTimer(info);
  });
  return true;
}

void Profiler::Stop() {
  std::lock_guard<std::mutex> control(g_control_mu);
  if (!g_running.exchange(false, std::memory_order_acq_rel)) return;
  // The handler stays installed forever; a signal already in flight sees
  // g_running == false and returns. Restoring SIG_DFL here would turn
  // that same late signal into process death.
  DisarmAllTimers();
}

bool Profiler::running() const {
  return g_running.load(std::memory_order_relaxed);
}

int Profiler::hz() const { return g_hz.load(std::memory_order_relaxed); }

Profiler::Aggregate Profiler::CollectWindow(double seconds) {
  Aggregate agg;
  if (!running()) return agg;
  std::lock_guard<std::mutex> collect(g_collect_mu);

  DiscardPending();
  StackCounts stacks;
  const uint64_t deadline =
      MonoMicros() + static_cast<uint64_t>(seconds * 1e6);
  // Drain every ~200ms so even the smoke test's ~1kHz timers cannot wrap
  // a ring between drains.
  for (;;) {
    const uint64_t now = MonoMicros();
    if (now >= deadline) break;
    const uint64_t remaining = deadline - now;
    ::usleep(static_cast<useconds_t>(std::min<uint64_t>(remaining, 200000)));
    DrainAll(&agg, &stacks);
  }

  agg.stacks.reserve(stacks.size());
  for (const auto& [key, count] : stacks) {
    StackSample s;
    s.stage = static_cast<uint16_t>(key[0]);
    s.pcs.assign(key.begin() + 1, key.end());
    s.count = count;
    agg.stacks.push_back(std::move(s));
  }
  std::stable_sort(agg.stacks.begin(), agg.stacks.end(),
                   [](const StackSample& a, const StackSample& b) {
                     return a.count > b.count;
                   });
  return agg;
}

std::string Profiler::SymbolizePc(uintptr_t pc) {
  static std::mutex mu;
  static auto* cache = new std::unordered_map<uintptr_t, std::string>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(pc);
  if (it != cache->end()) return it->second;

  std::string name;
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  // pc is a return address (or an interrupted RIP): back up one byte so
  // the lookup lands inside the call instruction's function, not on the
  // first byte of whatever follows it.
  if (dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled
                                                 : info.dli_sname;
    std::free(demangled);
    SanitizeFrame(&name);
  } else {
    Appendf(&name, "0x%zx", static_cast<size_t>(pc));
  }
  (*cache)[pc] = name;
  return name;
}

std::string Profiler::Folded(const Aggregate& agg) {
  std::string out;
  for (const StackSample& s : agg.stacks) {
    const std::string_view stage = StageName(s.stage);
    out.append(stage.data(), stage.size());
    // Captured innermost-first; folded format is root-first with the
    // stage as the synthetic root.
    for (auto it = s.pcs.rbegin(); it != s.pcs.rend(); ++it) {
      out += ';';
      out += SymbolizePc(*it);
    }
    Appendf(&out, " %llu\n", static_cast<unsigned long long>(s.count));
  }
  return out;
}

std::string Profiler::Json(const Aggregate& agg) {
  // Per-stage rollup, largest share first.
  std::vector<std::pair<uint16_t, uint64_t>> stages;
  for (uint16_t i = 0; i < kMaxStages; ++i) {
    if (agg.stage_samples[i] > 0) stages.emplace_back(i, agg.stage_samples[i]);
  }
  std::stable_sort(stages.begin(), stages.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });

  std::string out;
  Appendf(&out,
          "{\"total_samples\":%llu,\"dropped\":%llu,\"unique_stacks\":%zu,"
          "\"stages\":[",
          static_cast<unsigned long long>(agg.total),
          static_cast<unsigned long long>(agg.dropped), agg.stacks.size());
  bool first = true;
  for (const auto& [stage, samples] : stages) {
    if (!first) out += ",";
    first = false;
    const std::string_view name = StageName(stage);
    Appendf(&out, "{\"stage\":\"%.*s\",\"samples\":%llu,\"share\":%.4f}",
            static_cast<int>(name.size()), name.data(),
            static_cast<unsigned long long>(samples),
            agg.total > 0
                ? static_cast<double>(samples) / static_cast<double>(agg.total)
                : 0.0);
  }
  out += "]}";
  return out;
}

void Profiler::PublishGauges() {
  std::lock_guard<std::mutex> lock(g_publish_mu);
  uint64_t cur[kMaxStages];
  uint64_t delta[kMaxStages];
  uint64_t total_delta = 0;
  for (uint16_t i = 0; i < kMaxStages; ++i) {
    cur[i] = g_stage_samples[i].load(std::memory_order_relaxed);
    delta[i] = cur[i] - g_last_published[i];
    total_delta += delta[i];
  }
  if (total_delta == 0) return;
  const std::vector<std::string> names = StageNames();
  for (uint16_t i = 0; i < names.size() && i < kMaxStages; ++i) {
    // Skip stages that have never been sampled: no gauge churn for idle
    // interned names.
    if (cur[i] == 0) continue;
    MetricRegistry::Default()
        .GetGauge("profile.cpu_share." + names[i])
        ->Set(static_cast<int64_t>(delta[i] * 10000 / total_delta));
    g_last_published[i] = cur[i];
  }
}

uint64_t Profiler::total_samples() const {
  return g_total_samples.load(std::memory_order_relaxed);
}

uint64_t Profiler::stage_samples(uint16_t stage) const {
  return stage < kMaxStages
             ? g_stage_samples[stage].load(std::memory_order_relaxed)
             : 0;
}

}  // namespace obs
}  // namespace tencentrec
