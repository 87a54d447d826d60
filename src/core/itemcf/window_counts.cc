#include "core/itemcf/window_counts.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

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
    if (use_flat_) {
      // Keep the incrementally-maintained totals in sync: subtract the
      // dropped session's partials (exact — see the class comment).
      const Session& s = sessions_.front();
      s.items_flat.ForEach(
          [this](uint64_t key, double c) { items_total_[key] -= c; });
      s.pairs_flat.ForEach(
          [this](uint64_t key, double c) { pairs_total_[key] -= c; });
    }
    sessions_.pop_front();
  }
}

void WindowedCounts::AddItem(ItemId item, double delta, EventTime ts) {
  Session* s = SessionFor(ts);
  if (s == nullptr) return;
  if (use_flat_) {
    const uint64_t key = PackItem(item);
    s->items_flat[key] += delta;
    items_total_[key] += delta;
  } else {
    s->items_map[item] += delta;
  }
}

void WindowedCounts::AddPair(ItemId a, ItemId b, double delta, EventTime ts) {
  Session* s = SessionFor(ts);
  if (s == nullptr) return;
  if (use_flat_) {
    const uint64_t key = PackPair(a, b);
    s->pairs_flat[key] += delta;
    pairs_total_[key] += delta;
  } else {
    s->pairs_map[PairKey(a, b)] += delta;
  }
}

double WindowedCounts::ItemCount(ItemId item) const {
  // Flat kernel: one probe of the maintained windowed total (bit-identical
  // to the legacy sum — see the class comment). Legacy kernel: sum the
  // live sessions; the deque only ever holds in-window sessions (AdvanceTo
  // runs on every mutation), so the scan needs no filtering.
  if (use_flat_) {
    const double* v = items_total_.Find(PackItem(item));
    return v == nullptr ? 0.0 : *v;
  }
  double sum = 0.0;
  for (const auto& s : sessions_) {
    auto it = s.items_map.find(item);
    if (it != s.items_map.end()) sum += it->second;
  }
  return sum;
}

double WindowedCounts::PairCount(ItemId a, ItemId b) const {
  if (use_flat_) {
    const double* v = pairs_total_.Find(PackPair(a, b));
    return v == nullptr ? 0.0 : *v;
  }
  double sum = 0.0;
  const PairKey key(a, b);
  for (const auto& s : sessions_) {
    auto it = s.pairs_map.find(key);
    if (it != s.pairs_map.end()) sum += it->second;
  }
  return sum;
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
  if (use_flat_) {
    FlatSet64 seen;
    for (const auto& s : sessions_) {
      s.items_flat.ForEach([&seen](uint64_t key, double) { seen.Insert(key); });
    }
    return seen.size();
  }
  std::unordered_set<ItemId> seen;
  for (const auto& s : sessions_) {
    for (const auto& [item, c] : s.items_map) seen.insert(item);
  }
  return seen.size();
}

size_t WindowedCounts::TrackedPairs() const {
  if (use_flat_) {
    FlatSet64 seen;
    for (const auto& s : sessions_) {
      s.pairs_flat.ForEach([&seen](uint64_t key, double) { seen.Insert(key); });
    }
    return seen.size();
  }
  std::unordered_set<PairKey, PairKeyHash> seen;
  for (const auto& s : sessions_) {
    for (const auto& [pair, c] : s.pairs_map) seen.insert(pair);
  }
  return seen.size();
}

}  // namespace tencentrec::core
