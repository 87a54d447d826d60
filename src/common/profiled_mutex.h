#ifndef TENCENTREC_COMMON_PROFILED_MUTEX_H_
#define TENCENTREC_COMMON_PROFILED_MUTEX_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/metrics.h"
#include "common/stage.h"

namespace tencentrec {

/// Off-CPU half of the profiling plane (DESIGN.md §13): the on-CPU sampler
/// shows where cycles go; ProfiledMutex shows where threads *stop* — which
/// hot lock they queued on, for how long, and which stage was holding it.
///
/// Cost model: when contention profiling is disabled, lock() is one relaxed
/// load plus the underlying std::mutex — no clock reads, no atomics beyond
/// the flag. When enabled, the uncontended path adds one try_lock and two
/// relaxed stores (still no clock read); only a *contended* acquisition pays
/// MonoMicros() twice to time the wait. The wait lands in a per-site
/// `contention.<site>.wait_us` registry histogram plus a per-holder-stage
/// attribution array, so /profile/contention can answer "who blocks whom".

/// Global kill switch for contention timing (relaxed; independent of
/// MetricsEnabled so CPU profiling and lock profiling toggle separately).
bool ContentionProfilingEnabled();
void SetContentionProfilingEnabled(bool enabled);

/// Aggregated contention statistics for one named lock site. Many mutexes
/// may share a site (e.g. every TDStore instance lock registers the one
/// site "tdstore.instance") — totals aggregate across instances.
class ContentionSite {
 public:
  explicit ContentionSite(std::string name);

  ContentionSite(const ContentionSite&) = delete;
  ContentionSite& operator=(const ContentionSite&) = delete;

  void RecordUncontended() {
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
  }

  /// One contended acquisition: waited `wait_us` behind a holder running as
  /// `holder_stage` (0 when the holder was unregistered or released between
  /// our try_lock and the holder read).
  void RecordWait(uint64_t wait_us, uint16_t holder_stage);

  const std::string& name() const { return name_; }
  uint64_t acquisitions() const {
    return acquisitions_.load(std::memory_order_relaxed);
  }
  uint64_t contended() const {
    return contended_.load(std::memory_order_relaxed);
  }
  uint64_t wait_us_total() const {
    return wait_us_total_.load(std::memory_order_relaxed);
  }
  uint64_t wait_us_max() const {
    return wait_us_max_.load(std::memory_order_relaxed);
  }
  uint64_t wait_us_by_holder(uint16_t stage) const {
    return stage < kMaxStages
               ? wait_by_holder_[stage].load(std::memory_order_relaxed)
               : 0;
  }
  const LatencyHistogram* wait_hist() const { return wait_hist_; }

 private:
  const std::string name_;
  std::atomic<uint64_t> acquisitions_{0};
  std::atomic<uint64_t> contended_{0};
  std::atomic<uint64_t> wait_us_total_{0};
  std::atomic<uint64_t> wait_us_max_{0};
  std::array<std::atomic<uint64_t>, kMaxStages> wait_by_holder_{};
  LatencyHistogram* wait_hist_;  // registry-owned, stable
};

/// Interns `name` in the process-wide site directory; idempotent, returns a
/// stable pointer. Resolve once at construction time, never on a hot path.
ContentionSite* RegisterContentionSite(std::string_view name);

/// Per-site contention rollup as a JSON array (served at
/// /profile/contention): totals, wait percentiles from the registry
/// histogram, and the per-holder-stage wait breakdown.
std::string ContentionReportJson();

/// Drop-in BasicLockable replacement for a hot std::mutex. Works with
/// std::lock_guard / std::unique_lock. Not recursive, not timed.
class ProfiledMutex {
 public:
  explicit ProfiledMutex(std::string_view site_name)
      : site_(RegisterContentionSite(site_name)) {}

  ProfiledMutex(const ProfiledMutex&) = delete;
  ProfiledMutex& operator=(const ProfiledMutex&) = delete;

  void lock() {
    if (!ContentionProfilingEnabled()) {
      mu_.lock();
      return;
    }
    if (mu_.try_lock()) {
      // Uncontended: publish our stage for future waiters; no clock read.
      holder_stage_.store(CurrentStage(), std::memory_order_relaxed);
      site_->RecordUncontended();
      return;
    }
    LockContended();
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
    if (ContentionProfilingEnabled()) {
      holder_stage_.store(CurrentStage(), std::memory_order_relaxed);
      site_->RecordUncontended();
    }
    return true;
  }

  void unlock() {
    // One unconditional relaxed store — cheaper than re-reading the enabled
    // flag, and keeps the holder field correct across mid-hold toggles.
    holder_stage_.store(0, std::memory_order_relaxed);
    mu_.unlock();
  }

 private:
  void LockContended();

  std::mutex mu_;
  /// Stage of the current holder while profiling is on; 0 when free. Read
  /// by contended waiters *before* blocking, so the blame sample reflects
  /// who they actually queued behind.
  std::atomic<uint16_t> holder_stage_{0};
  ContentionSite* site_;
};

}  // namespace tencentrec

#endif  // TENCENTREC_COMMON_PROFILED_MUTEX_H_
