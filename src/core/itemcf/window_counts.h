#ifndef TENCENTREC_CORE_ITEMCF_WINDOW_COUNTS_H_
#define TENCENTREC_CORE_ITEMCF_WINDOW_COUNTS_H_

#include <cstdint>
#include <deque>

#include "common/clock.h"
#include "common/flat_map.h"
#include "core/itemcf/pair_key.h"

namespace tencentrec::core {

/// Sliding-window itemCount/pairCount storage (Eq. 10). Event time is cut
/// into sessions of `session_length`; each session keeps its own partial
/// counts (itemCount_w, pairCount_w), all "naturally incrementally
/// updated", and a query sums the most recent `window_sessions` sessions.
/// Expired sessions are dropped as time advances — the forgetting mechanism
/// that keeps the model tracking recent interests.
///
/// `window_sessions == 0` disables forgetting (cumulative counts), which is
/// the plain incremental CF of §4.1.3.
///
/// Each session holds flat open-addressing tables over packed uint64 keys
/// (DESIGN.md §15). Windowed *totals* tables are maintained incrementally
/// beside them: adds land in both the owning session table and the total,
/// and eviction subtracts the dropped session's entries, so
/// ItemCount/PairCount are one probe instead of one per live session.
/// Action weights are dyadic rationals (multiples of 0.5), so every sum and
/// the eviction subtraction are exact in double precision: the maintained
/// total equals the naive sum over live sessions bit for bit, for any
/// accumulation order (asserted by WindowedCountsProperty in
/// tests/property_test.cc, with late in-window adds and expiry).
/// Fully-evicted keys linger as exact-0.0 entries (the tables have no
/// tombstones); queries read them as 0.0, and TrackedItems/TrackedPairs
/// scan the live sessions so zombies never inflate the tracked counts.
class WindowedCounts {
 public:
  WindowedCounts(EventTime session_length, int window_sessions)
      : session_length_(session_length < 1 ? 1 : session_length),
        window_sessions_(window_sessions) {}

  /// Adds ∆r to itemCount(item) in the session containing `ts`.
  void AddItem(ItemId item, double delta, EventTime ts);

  /// Adds ∆co-rating to pairCount(a, b) in the session containing `ts`.
  void AddPair(ItemId a, ItemId b, double delta, EventTime ts);

  /// Σ_w itemCount_w(item) over the window ending at the latest session.
  double ItemCount(ItemId item) const;

  /// Σ_w pairCount_w(a, b) over the window ending at the latest session.
  double PairCount(ItemId a, ItemId b) const;

  /// sim(a, b) = pairCount / (√itemCount(a) · √itemCount(b))  (Eq. 5/10).
  /// Zero when either itemCount is empty.
  double Similarity(ItemId a, ItemId b) const;

  /// Moves the window forward to the session containing `ts`, dropping
  /// sessions older than the window. Adds do this implicitly; call it
  /// directly to expire counts during quiet periods.
  void AdvanceTo(EventTime ts);

  int64_t CurrentSession() const { return latest_session_; }
  size_t NumSessions() const { return sessions_.size(); }

  /// Distinct items/pairs currently tracked (across live sessions).
  size_t TrackedItems() const;
  size_t TrackedPairs() const;

 private:
  struct Session {
    int64_t id = 0;
    FlatMap64<double> items;
    FlatMap64<double> pairs;
  };

  int64_t SessionOf(EventTime ts) const { return ts / session_length_; }
  /// The live session that should absorb counts timestamped `ts`, creating
  /// it in id-sorted position when needed. Late but in-window data lands in
  /// its own (correct) session; out-of-window late data folds into the
  /// oldest live session, or returns nullptr (drop) when nothing is live.
  Session* SessionFor(EventTime ts);
  bool InWindow(int64_t session_id) const {
    return window_sessions_ <= 0 ||
           session_id > latest_session_ - window_sessions_;
  }

  const EventTime session_length_;
  const int window_sessions_;
  int64_t latest_session_ = -1;
  /// Σ over live sessions, maintained incrementally (see the class
  /// comment). May hold exact-0.0 zombies for evicted keys.
  FlatMap64<double> items_total_;
  FlatMap64<double> pairs_total_;
  /// Live sessions, ordered by ascending session id; at most
  /// window_sessions_ of them (or one cumulative pseudo-session when
  /// windowing is off). The ordering invariant makes eviction front-only
  /// and lets reads sum the whole deque without in-window checks.
  std::deque<Session> sessions_;
};

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_ITEMCF_WINDOW_COUNTS_H_
