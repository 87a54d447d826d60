#include "core/itemcf/window_counts.h"

#include <algorithm>
#include <cmath>

namespace tencentrec::core {

WindowedCounts::Session* WindowedCounts::SessionFor(EventTime ts) {
  // Cumulative mode: one ever-growing pseudo-session.
  if (window_sessions_ <= 0) {
    if (sessions_.empty()) {
      sessions_.push_back(Session{});
      latest_session_ = 0;
    }
    return &sessions_.back();
  }

  const int64_t id = SessionOf(ts);
  AdvanceTo(ts);
  if (!InWindow(id)) {
    // Out-of-window late data folds into the oldest live session rather
    // than resurrecting an expired one; with nothing live it is already
    // fully expired and is dropped.
    return sessions_.empty() ? nullptr : &sessions_.front();
  }
  // The deque is ordered by session id, so eviction stays front-only and
  // reads need no in-window filtering. Hot path first: in-order streams
  // always land in the newest session.
  if (!sessions_.empty() && sessions_.back().id == id) {
    return &sessions_.back();
  }
  auto it = std::lower_bound(
      sessions_.begin(), sessions_.end(), id,
      [](const Session& s, int64_t want) { return s.id < want; });
  if (it != sessions_.end() && it->id == id) return &*it;
  it = sessions_.insert(it, Session{});
  it->id = id;
  return &*it;
}

void WindowedCounts::AdvanceTo(EventTime ts) {
  if (window_sessions_ <= 0) return;
  const int64_t id = SessionOf(ts);
  if (id > latest_session_) latest_session_ = id;
  // Ordered deque: every expired session sits at the front, so front-only
  // pops reclaim all of them even after out-of-order inserts.
  while (!sessions_.empty() && !InWindow(sessions_.front().id)) {
    // Keep the incrementally-maintained totals in sync: subtract the
    // dropped session's partials (exact — see the class comment).
    const Session& s = sessions_.front();
    s.items.ForEach([this](uint64_t key, double c) { items_total_[key] -= c; });
    s.pairs.ForEach([this](uint64_t key, double c) { pairs_total_[key] -= c; });
    sessions_.pop_front();
  }
}

void WindowedCounts::AddItem(ItemId item, double delta, EventTime ts) {
  Session* s = SessionFor(ts);
  if (s == nullptr) return;
  const uint64_t key = PackItem(item);
  s->items[key] += delta;
  items_total_[key] += delta;
}

void WindowedCounts::AddPair(ItemId a, ItemId b, double delta, EventTime ts) {
  Session* s = SessionFor(ts);
  if (s == nullptr) return;
  const uint64_t key = PackPair(a, b);
  s->pairs[key] += delta;
  pairs_total_[key] += delta;
}

double WindowedCounts::ItemCount(ItemId item) const {
  // One probe of the maintained windowed total (see the class comment).
  const double* v = items_total_.Find(PackItem(item));
  return v == nullptr ? 0.0 : *v;
}

double WindowedCounts::PairCount(ItemId a, ItemId b) const {
  const double* v = pairs_total_.Find(PackPair(a, b));
  return v == nullptr ? 0.0 : *v;
}

double WindowedCounts::Similarity(ItemId a, ItemId b) const {
  const double ca = ItemCount(a);
  const double cb = ItemCount(b);
  if (ca <= 0.0 || cb <= 0.0) return 0.0;
  const double pc = PairCount(a, b);
  if (pc <= 0.0) return 0.0;
  // Single sqrt of the product — the canonical Eq. 5 form every similarity
  // site shares so cross-path comparisons stay bit-exact.
  return pc / std::sqrt(ca * cb);
}

size_t WindowedCounts::TrackedItems() const {
  FlatSet64 seen;
  for (const auto& s : sessions_) {
    s.items.ForEach([&seen](uint64_t key, double) { seen.Insert(key); });
  }
  return seen.size();
}

size_t WindowedCounts::TrackedPairs() const {
  FlatSet64 seen;
  for (const auto& s : sessions_) {
    s.pairs.ForEach([&seen](uint64_t key, double) { seen.Insert(key); });
  }
  return seen.size();
}

}  // namespace tencentrec::core
