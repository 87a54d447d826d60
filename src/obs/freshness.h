#ifndef TENCENTREC_OBS_FRESHNESS_H_
#define TENCENTREC_OBS_FRESHNESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tencentrec {
class MetricRegistry;
}  // namespace tencentrec

namespace tencentrec::obs {

/// Event-time watermark tracking for the freshness half of the SLO plane.
///
/// Every stage of the processing path — the ingest edge (spouts/producers),
/// each topology bolt — owns one Slot per instance and advances it with the
/// `ingest_micros` stamp of the tuples it has *fully processed* (state
/// landed in the store).
/// The tracker derives per-stage watermarks and freshness lags from those
/// slots:
///
///   stage watermark  = max(retired watermark,
///                          min over live slots that have seen data)
///   stage lag        = now - watermark   (0 before any data)
///   end-to-end lag   = now - min over all stages' watermarks
///
/// The min-over-instances rule is the classic low-watermark: the stage has
/// durably processed *everything* stamped at or before it. Slots that have
/// not observed a single tuple are excluded (the idle-source rule — an
/// instance whose partition happens to be empty must not pin the stage at
/// zero). When a slot retires cleanly (topology teardown after a drained
/// run), its high-water mark folds into the stage's retired watermark: a
/// fully drained run has, by definition, processed everything it emitted.
///
/// Out-of-order `ingest_micros` are handled by Advance's monotone-max
/// semantics: late tuples (stamp below the slot's watermark) never move it
/// backwards, so the derived lag is pessimistic, never optimistic.
///
/// Advance is one relaxed atomic max (a CAS loop that almost always takes
/// zero iterations because stamps arrive nearly in order); stages and slots
/// are registered under a mutex, so resolve slots once at Prepare time and
/// advance on the hot path.
class FreshnessTracker {
 public:
  /// One instance's watermark register. Obtained from RegisterSlot; thread-
  /// safe to Advance from the owning worker while readers derive stage
  /// watermarks. Destroying the handle retires the slot (see Retire).
  class Slot {
   public:
    /// Monotone max: stamps at or below the current watermark are ignored
    /// (out-of-order/late data must never regress a watermark). Zero stamps
    /// (unstamped tuples) are ignored entirely.
    void Advance(uint64_t ingest_micros) {
      if (ingest_micros == 0) return;
      uint64_t cur = watermark_.load(std::memory_order_relaxed);
      while (ingest_micros > cur &&
             !watermark_.compare_exchange_weak(cur, ingest_micros,
                                               std::memory_order_relaxed)) {
      }
    }

    uint64_t watermark() const {
      return watermark_.load(std::memory_order_relaxed);
    }

   private:
    friend class FreshnessTracker;
    std::atomic<uint64_t> watermark_{0};
  };

  /// RAII slot handle: retires (and frees) the slot on destruction.
  class ScopedSlot {
   public:
    ScopedSlot() = default;
    ScopedSlot(FreshnessTracker* tracker, Slot* slot)
        : tracker_(tracker), slot_(slot) {}
    ~ScopedSlot() { reset(); }

    ScopedSlot(ScopedSlot&& other) noexcept
        : tracker_(other.tracker_), slot_(other.slot_) {
      other.tracker_ = nullptr;
      other.slot_ = nullptr;
    }
    ScopedSlot& operator=(ScopedSlot&& other) noexcept {
      if (this != &other) {
        reset();
        tracker_ = other.tracker_;
        slot_ = other.slot_;
        other.tracker_ = nullptr;
        other.slot_ = nullptr;
      }
      return *this;
    }

    ScopedSlot(const ScopedSlot&) = delete;
    ScopedSlot& operator=(const ScopedSlot&) = delete;

    void Advance(uint64_t ingest_micros) {
      if (slot_ != nullptr) slot_->Advance(ingest_micros);
    }
    Slot* get() const { return slot_; }
    explicit operator bool() const { return slot_ != nullptr; }

    void reset() {
      if (tracker_ != nullptr && slot_ != nullptr) {
        tracker_->Retire(slot_);
      }
      tracker_ = nullptr;
      slot_ = nullptr;
    }

   private:
    FreshnessTracker* tracker_ = nullptr;
    Slot* slot_ = nullptr;
  };

  struct StageLag {
    std::string stage;
    uint64_t watermark_micros = 0;  ///< 0 = no data observed yet
    uint64_t lag_micros = 0;        ///< now - watermark, 0 before data
    int live_slots = 0;
  };

  /// The process-wide tracker components advance into (mirrors
  /// MetricRegistry::Default()).
  static FreshnessTracker& Default();

  FreshnessTracker() = default;
  FreshnessTracker(const FreshnessTracker&) = delete;
  FreshnessTracker& operator=(const FreshnessTracker&) = delete;

  /// Registers one instance slot under `stage` (created on first use).
  /// The returned handle owns the slot; keep it for the instance's life.
  ScopedSlot RegisterSlot(const std::string& stage);

  /// Current low-watermark of `stage` (0 = unknown stage or no data).
  uint64_t StageWatermark(const std::string& stage) const;

  /// Per-stage lags at `now_micros` (callers pass MonoMicros(); tests pass
  /// a fixed instant for hand-computable values). Sorted by stage name.
  std::vector<StageLag> Lags(uint64_t now_micros) const;

  /// now - min over every stage's watermark; 0 until every registered
  /// stage has observed data (a pipeline that never ran is not "late").
  uint64_t EndToEndLag(uint64_t now_micros) const;

  /// Writes `freshness.<stage>.lag_us` / `.watermark_us` gauges plus
  /// `freshness.e2e.lag_us` into `registry` — the bridge that puts
  /// freshness on /vars and into the time-series ring. Typically invoked
  /// as a TimeSeriesStore pre-sample hook and at snapshot collection.
  void PublishGauges(MetricRegistry* registry, uint64_t now_micros) const;

  /// Drops every stage (tests; production stages live for the process).
  void Clear();

 private:
  struct Stage {
    std::string name;
    std::vector<std::unique_ptr<Slot>> slots;
    /// Folded high-water mark of cleanly retired slots.
    uint64_t retired_watermark = 0;
  };

  void Retire(Slot* slot);
  /// Derived watermark of one stage (mu_ held).
  static uint64_t WatermarkOf(const Stage& stage, int* live_slots);

  mutable std::mutex mu_;
  std::vector<Stage> stages_;
};

}  // namespace tencentrec::obs

#endif  // TENCENTREC_OBS_FRESHNESS_H_
