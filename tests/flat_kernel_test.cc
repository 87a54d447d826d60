// The flat CF state kernel (DESIGN.md §15): flat table and arena units,
// TopK's single-pass sift against a sort-per-update reference, and golden
// digests of every PracticalItemCf output on four traces. The digests were
// captured while the std::unordered_map kernel still existed, with both
// kernels asserted to produce them, so they pin today's outputs to that
// original reference bit for bit. Exactness is legitimate: action weights
// are dyadic rationals (multiples of 0.5), so every count is an exact float
// sum, identical in any accumulation order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/topk.h"
#include "core/itemcf/item_cf.h"
#include "core/itemcf/pair_key.h"

namespace tencentrec::core {
namespace {

// --- flat table units --------------------------------------------------------

TEST(FlatMap64Test, UpsertFindGrow) {
  FlatMap64<double> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);

  // Push through several doublings; every key must stay reachable.
  const int n = 1000;
  for (int i = 0; i < n; ++i) map[static_cast<uint64_t>(i)] += i * 0.5;
  EXPECT_EQ(map.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double* v = map.Find(static_cast<uint64_t>(i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i * 0.5);
  }
  EXPECT_EQ(map.Find(static_cast<uint64_t>(n)), nullptr);

  // operator[] on an existing key must not duplicate.
  map[3] += 1.0;
  EXPECT_EQ(map.size(), static_cast<size_t>(n));
  EXPECT_EQ(*map.Find(3), 3 * 0.5 + 1.0);
}

TEST(FlatMap64Test, ClearKeepsCapacityAndReserve) {
  FlatMap64<uint32_t> map;
  map.Reserve(100);
  const size_t cap = map.capacity();
  EXPECT_GE(cap * 3, 100 * 4u);  // sized for 100 at 3/4 load
  for (uint64_t k = 0; k < 100; ++k) map[k] = static_cast<uint32_t>(k);
  EXPECT_EQ(map.capacity(), cap);  // no rehash churn after Reserve
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.Find(5), nullptr);
  map[5] = 9;
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap64Test, ForEachVisitsEveryEntryOnce) {
  FlatMap64<double> map;
  for (uint64_t k = 1; k <= 50; ++k) map[k * 977] = static_cast<double>(k);
  double sum = 0.0;
  size_t visits = 0;
  map.ForEach([&](uint64_t, double v) {
    sum += v;
    ++visits;
  });
  EXPECT_EQ(visits, 50u);
  EXPECT_EQ(sum, 50.0 * 51.0 / 2.0);
}

TEST(FlatSet64Test, InsertContainsClear) {
  FlatSet64 set;
  EXPECT_FALSE(set.Contains(1));
  EXPECT_TRUE(set.Insert(1));
  EXPECT_FALSE(set.Insert(1));  // duplicate
  for (uint64_t k = 2; k < 500; ++k) EXPECT_TRUE(set.Insert(k * k));
  EXPECT_EQ(set.size(), 499u);
  for (uint64_t k = 2; k < 500; ++k) EXPECT_TRUE(set.Contains(k * k));
  EXPECT_FALSE(set.Contains(3));
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(1));
}

TEST(PairKeyTest, PackIsCanonicalAndSentinelFree) {
  // Packing is order-insensitive (canonical lo/hi) and lo < hi guarantees
  // the packed key never equals the flat tables' ~0 sentinel.
  EXPECT_EQ(PackPair(3, 9), PackPair(9, 3));
  EXPECT_EQ(PackPair(3, 9), (uint64_t{3} << 32) | 9);
  EXPECT_NE(PackPair(static_cast<ItemId>(0xfffffffe),
                     static_cast<ItemId>(0xffffffff)),
            FlatMap64<double>::kEmptyKey);
}

// --- arena units -------------------------------------------------------------

TEST(ArenaTest, AlignmentAndReset) {
  Arena arena(1024);
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_NE(a, b);

  // Oversized requests get a dedicated block.
  void* big = arena.Allocate(1 << 16);
  std::memset(big, 0xab, 1 << 16);

  const size_t reserved = arena.BytesReserved();
  arena.Reset();
  // Reset rewinds but keeps blocks: same storage comes back.
  void* a2 = arena.Allocate(3, 1);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(arena.BytesReserved(), reserved);
}

TEST(ArenaTest, ArenaVectorGrowthPreservesContents) {
  Arena arena;
  ArenaVector<int> v(&arena, 2);
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
  // Zero initial capacity must still work (clamped internally).
  ArenaVector<int> w(&arena, 0);
  w.push_back(42);
  EXPECT_EQ(w[0], 42);
}

// --- TopK determinism + kernel equivalence -----------------------------------

/// Sort-per-update reference for TopK: array-of-structs entries re-sorted
/// by (score desc, id asc) on every change. The sift kernel must match it
/// on any trace.
template <typename Id>
class SortPerUpdateTopK {
 public:
  using Entry = typename TopK<Id>::Entry;

  explicit SortPerUpdateTopK(size_t k) : k_(k) {}

  bool Update(const Id& id, double score) {
    for (auto& e : entries_) {
      if (e.id == id) {
        e.score = score;
        Reorder();
        return true;
      }
    }
    if (entries_.size() < k_) {
      entries_.push_back({id, score});
    } else if (score > entries_.back().score) {
      entries_.back() = {id, score};
    } else {
      return false;
    }
    Reorder();
    return true;
  }

  bool Erase(const Id& id) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].id == id) {
        entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  double Threshold() const {
    return entries_.size() < k_ ? 0.0 : entries_.back().score;
  }

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  void Reorder() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.id < b.id;
              });
  }

  size_t k_;
  std::vector<Entry> entries_;
};

TEST(TopKTest, TieOrderingDeterministicUnderShuffledInsertions) {
  // Regression for the ordering bug this PR fixes: equal-score entries used
  // to land in unspecified relative order (non-stable sort, strict `>`
  // comparator), so eviction and serialized lists differed across runs.
  // Now ties rank by ascending id, so any insertion order of the same
  // (id, score) set yields identical entries().
  // (Note what is NOT guaranteed: with a full table, a new tie is rejected
  // — "ties never evict" — so which ids a too-small table retains honestly
  // depends on arrival order. The determinism contract is about ordering
  // and eviction among admitted entries, tested with a table that holds
  // them all.)
  std::vector<int64_t> ids = {5, 9, 1, 7, 3, 8, 2, 6, 4, 10};
  std::vector<TopK<int64_t>::Entry> want;
  std::vector<TopK<int64_t>::Entry> want_rescored;

  Rng rng(123);
  for (int round = 0; round < 20; ++round) {
    // Fisher-Yates with the deterministic Rng — a fresh shuffle per round.
    for (size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.Uniform(i + 1)]);
    }
    TopK<int64_t> topk(ids.size());
    for (int64_t id : ids) topk.Update(id, 0.5);  // all-ties insertion
    const auto got = topk.entries();
    ASSERT_EQ(got.size(), ids.size());
    for (size_t r = 1; r < got.size(); ++r) {
      EXPECT_LT(got[r - 1].id, got[r].id);  // ties ordered by id
    }
    // Re-score to two tie groups (still shuffled order): ranking must be
    // (score desc, id asc) regardless of which update arrived when.
    for (int64_t id : ids) topk.Update(id, id % 2 == 0 ? 0.75 : 0.25);
    const auto rescored = topk.entries();
    if (round == 0) {
      want = got;
      want_rescored = rescored;
    } else {
      EXPECT_EQ(got, want) << "round " << round;
      EXPECT_EQ(rescored, want_rescored) << "round " << round;
    }
  }
}

TEST(TopKTest, MatchesSortPerUpdateOnRandomizedTraces) {
  // The sift kernel must be bit-identical to the sort-per-update reference
  // on any trace: same entries, same thresholds, same return values,
  // including Erase and overflow eviction.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    TopK<int64_t> fast(8);
    SortPerUpdateTopK<int64_t> oracle(8);
    for (int step = 0; step < 3000; ++step) {
      const int64_t id = static_cast<int64_t>(1 + rng.Uniform(30));
      if (rng.Bernoulli(0.1)) {
        EXPECT_EQ(fast.Erase(id), oracle.Erase(id)) << "step " << step;
      } else {
        // Quantized scores force frequent exact ties.
        const double score = static_cast<double>(rng.Uniform(12)) / 8.0;
        EXPECT_EQ(fast.Update(id, score), oracle.Update(id, score))
            << "step " << step;
      }
      ASSERT_EQ(fast.entries(), oracle.entries()) << "step " << step;
      EXPECT_EQ(fast.Threshold(), oracle.Threshold()) << "step " << step;
      EXPECT_EQ(fast.size(), oracle.size());
    }
  }
}

// --- PracticalItemCf golden digests ------------------------------------------

UserAction Act(UserId user, ItemId item, ActionType type, EventTime ts) {
  UserAction a;
  a.user = user;
  a.item = item;
  a.action = type;
  a.timestamp = ts;
  return a;
}

std::vector<UserAction> RandomActions(uint64_t seed, int num_actions,
                                      int num_users, int num_items) {
  Rng rng(seed);
  const ActionType kTypes[] = {ActionType::kBrowse, ActionType::kClick,
                               ActionType::kRead, ActionType::kShare,
                               ActionType::kPurchase};
  std::vector<UserAction> actions;
  actions.reserve(static_cast<size_t>(num_actions));
  for (int i = 0; i < num_actions; ++i) {
    actions.push_back(
        Act(static_cast<UserId>(1 + rng.Uniform(num_users)),
            static_cast<ItemId>(1 + rng.Uniform(num_items)),
            kTypes[rng.Uniform(5)], Seconds(i * 40)));
  }
  return actions;
}

/// FNV-1a digest of a byte transcript of every observable PracticalItemCf
/// output after a trace: stats, tracked item/pair counts, per-item counts
/// and per-pair counts, raw bits of Similarity/EffectiveSimilarity, prune
/// flags, each top-K list's ids with raw score bits and its threshold, and
/// per user the recent items, every rating and RecommendForUser(user, 5).
/// A changed id, rank, flag or single score bit changes the digest.
uint64_t KernelDigest(const PracticalItemCf& cf, int num_users,
                      int num_items) {
  std::string bytes;
  auto raw = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  raw(cf.stats().actions);
  raw(cf.stats().pair_updates);
  raw(cf.stats().pair_updates_pruned);
  raw(cf.stats().pairs_pruned);
  raw(static_cast<uint64_t>(cf.counts().TrackedItems()));
  raw(static_cast<uint64_t>(cf.counts().TrackedPairs()));
  for (ItemId a = 1; a <= num_items; ++a) {
    raw(cf.counts().ItemCount(a));
    for (ItemId b = a + 1; b <= num_items; ++b) {
      raw(cf.counts().PairCount(a, b));
      raw(cf.Similarity(a, b));
      raw(cf.EffectiveSimilarity(a, b));
      raw(static_cast<uint8_t>(cf.IsPruned(a, b)));
    }
    const TopK<ItemId>* list = cf.SimilarItems(a);
    raw(static_cast<uint8_t>(list != nullptr));
    if (list == nullptr) continue;
    raw(static_cast<uint64_t>(list->size()));
    for (const auto& e : list->entries()) {
      raw(e.id);
      raw(e.score);
    }
    raw(list->Threshold());
  }
  for (UserId u = 1; u <= num_users; ++u) {
    const std::vector<ItemId> recent = cf.RecentItemsOf(u);
    raw(static_cast<uint64_t>(recent.size()));
    for (ItemId item : recent) raw(item);
    for (ItemId i = 1; i <= num_items; ++i) raw(cf.UserRating(u, i));
    const Recommendations recs = cf.RecommendForUser(u, 5);
    raw(static_cast<uint64_t>(recs.size()));
    for (const auto& r : recs) {
      raw(r.item);
      raw(r.score);
    }
  }
  return HashString(bytes);
}

/// Runs one trace through a fresh PracticalItemCf and asserts its digest
/// equals the golden constant.
void ExpectGoldenDigest(const PracticalItemCf::Options& options,
                        const std::vector<UserAction>& actions, int num_users,
                        int num_items, uint64_t golden) {
  PracticalItemCf cf(options);
  for (const auto& action : actions) cf.ProcessAction(action);
  const uint64_t digest = KernelDigest(cf, num_users, num_items);
  EXPECT_EQ(digest, golden) << std::hex << "0x" << digest;
}

TEST(KernelDigestTest, SeededRandomTrace) {
  PracticalItemCf::Options options;
  options.linked_time = Hours(4);
  options.top_k = 5;  // small lists so overflow eviction is exercised
  ExpectGoldenDigest(options, RandomActions(17, 4000, 25, 40), 25, 40,
                     0x2e77532c8e80e8e7ull);
}

TEST(KernelDigestTest, WindowedTraceWithExpiry) {
  PracticalItemCf::Options options;
  options.linked_time = Hours(2);
  options.session_length = Hours(1);
  options.window_sessions = 3;
  options.top_k = 4;
  // 40 s spacing over 4000 actions spans ~44 sessions, so plenty expire.
  ExpectGoldenDigest(options, RandomActions(23, 4000, 20, 24), 20, 24,
                     0xe0a0016a550d5cd9ull);
}

TEST(KernelDigestTest, AllTiesTrace) {
  // Adversarial all-ties workload: one action type and symmetric structure
  // give many exactly-equal similarities; list admission/eviction must keep
  // making the same tie decisions.
  std::vector<UserAction> actions;
  EventTime ts = 0;
  for (UserId u = 1; u <= 16; ++u) {
    for (ItemId i = 1; i <= 12; ++i) {
      actions.push_back(Act(u, i, ActionType::kClick, ts));
      ts += Seconds(10);
    }
  }
  PracticalItemCf::Options options;
  options.linked_time = Days(30);
  options.top_k = 3;  // far smaller than the clique: constant tie-eviction
  ExpectGoldenDigest(options, actions, 16, 12, 0xfc7e876bf0ed0d35ull);
}

TEST(KernelDigestTest, PruneEraseReopenTrace) {
  // Drives Algorithm 1 hard: tight lists + aggressive delta so pairs get
  // pruned (erasing stale list entries and reopening thresholds), then keep
  // arriving as skipped updates. Every prune decision, erase, and skip
  // counter is part of the digest.
  PracticalItemCf::Options options;
  options.linked_time = Hours(6);
  options.top_k = 3;
  options.enable_pruning = true;
  options.hoeffding_delta = 0.4;
  const auto actions = RandomActions(31, 6000, 12, 30);
  ExpectGoldenDigest(options, actions, 12, 30, 0x585ee6385989e4e3ull);

  // The trace must actually prune, or the test proves nothing.
  PracticalItemCf probe(options);
  for (const auto& action : actions) probe.ProcessAction(action);
  EXPECT_GT(probe.stats().pairs_pruned, 0);
  EXPECT_GT(probe.stats().pair_updates_pruned, 0);
}

}  // namespace
}  // namespace tencentrec::core
