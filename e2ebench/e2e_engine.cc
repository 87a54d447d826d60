// End-to-end engine benchmark.
//
// Drives one production-configured engine::TencentRec deployment (TDAccess
// -> tstorm topology -> TDStore -> StoreQuery, Fig. 9 of the paper) through
// its public entry points only, on one of three workloads:
//
//   ingest_bulk   the write path alone: 10k-action batches, each published
//                 to TDAccess and committed by one ProcessFromAccess.
//   serve_warm    the read path alone: closed-loop querents calling
//                 StoreQuery::Recommend against a frozen warm store.
//   stream_mixed  both at once: an open-loop arrival schedule drained in
//                 small batches by one feeder thread while querents serve.
//
// Every workload starts from the same warm state (engine creation plus a
// warm ingest, timed as setup and never inside a measured phase). The
// contract of the surrounding harness requires every end-to-end metric on
// every workload, so a workload whose main phase leaves one path idle runs
// a short probe of that path after its main phase (a serve probe after
// ingest_bulk, an ingest probe after serve_warm); see DESIGN.md.
//
// Each layer is measured from outside: the benchmark times its own calls
// into PublishActions / ProcessFromAccess / StoreQuery::* /
// PracticalItemCf::ProcessAction, and reads the counters the layers already
// expose (last_metrics(), DataServer counters, Wal::record_count,
// QueryCache::stats, DataServer::TotalKeys). With --trace 1 it also records
// spans around those calls, writes them out as a Chrome trace, and reports
// per-layer self time and the tracing overhead.
//
// The correctness gate checks only invariants the engine keeps: exact
// all-session item totals against the serial PracticalItemCf oracle, every
// published action consumed exactly once, well-formed served lists, and an
// identical single-threaded replay of sampled requests on a frozen store.
// Pair counts are compared too, but only reported
// (topo.pair_count_oracle_mismatches): the spout -> pretreatment shuffle
// grouping reorders one user's actions, which the linked-time rule is
// sensitive to.
//
// Usage:
//   e2e_engine --workload <ingest_bulk|serve_warm|stream_mixed> --seed <n>
//              --seconds <s> --trace <0|1> --work-dir <dir>
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/itemcf/item_cf.h"
#include "engine/tencentrec.h"
#include "topo/query.h"

namespace {

using namespace tencentrec;
using Clock = std::chrono::steady_clock;

double WallSeconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double WallMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile of an unsorted sample (0 when empty).
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Peak resident memory of this process (one deployment, see main).
double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- workload parameters -----------------------------------------------------

/// Generator and deployment parameters shared by all workloads (recorded in
/// DESIGN.md; printed on every run).
struct Params {
  int users = 20000;
  int items = 2000;
  double item_zipf = 0.9;
  /// Querents draw users Zipf(query_user_zipf); the stream's users are
  /// uniform, so users >> items and each user's history stays short.
  double query_user_zipf = 0.9;
  /// Event time between consecutive actions.
  EventTime step = kMicrosPerSecond / 2;
  /// Share of users with unknown demographics (DB falls back to group 0).
  double unknown_demographics = 0.1;
  /// Warm state: long enough that the 6-session window has evicted.
  size_t warm_actions = 50000;
  /// Independent deployments per run, each set up anew and
  /// measured for seconds / deployments; every metric is their median.
  int deployments = 3;
  size_t bulk_batch = 10000;
  /// Upper bound on actions ingest_bulk can consume after the warm state.
  size_t bulk_cap = 400000;
  /// serve_warm's ingest probe: this many bulk batches.
  size_t probe_batches = 2;
  /// ingest_bulk's serve probe: this long.
  double probe_serve_seconds = 2.0;
  int serve_querents = 4;
  int mixed_querents = 3;
  /// stream_mixed open-loop arrival rate (actions/s of wall time).
  double mixed_rate = 2000.0;
  size_t rec_n = 10;
  /// Requests per querent kept for the single-threaded replay.
  size_t replay_per_querent = 50;
  /// Top items (by oracle count) whose pairs are compared with the oracle.
  size_t pair_check_items = 60;
};

/// Five action types with distinct default weights (1.0 .. 3.0), most
/// frequent first.
struct TypeMix {
  core::ActionType type;
  double share;
};
constexpr TypeMix kTypeMix[] = {
    {core::ActionType::kBrowse, 0.40},  {core::ActionType::kClick, 0.30},
    {core::ActionType::kRead, 0.15},    {core::ActionType::kShare, 0.10},
    {core::ActionType::kPurchase, 0.05},
};

engine::TencentRec::Options EngineOptions(const std::string& wal_dir) {
  engine::TencentRec::Options o;
  o.app.app = "bench";
  o.app.window_sessions = 6;
  o.app.session_length = Hours(1);
  o.app.parallelism = 2;
  o.store.num_data_servers = 2;
  o.store.num_instances = 8;
  o.store.durability.enabled = true;
  o.store.durability.dir = wal_dir;
  return o;
}

core::PracticalItemCf::Options OracleOptions(const topo::AppOptions& app) {
  core::PracticalItemCf::Options o;
  o.weights = app.weights;
  o.linked_time = app.linked_time;
  o.top_k = app.top_k;
  o.recent_k = app.recent_k;
  o.session_length = app.session_length;
  o.window_sessions = 0;  // cumulative: the gate tiles the store's windows
  o.use_flat_kernels = app.use_flat_kernels;
  return o;
}

/// The seeded stream and per-user demographics. The engine only ever sees
/// these generated actions.
struct Stream {
  std::vector<core::UserAction> actions;
  std::vector<core::Demographics> demographics;  // indexed by user id
};

Stream Generate(const Params& p, uint64_t seed, size_t n) {
  Stream s;
  Rng demo_rng(seed * 0x9E3779B97F4A7C15ull + 1);
  s.demographics.resize(static_cast<size_t>(p.users) + 1);
  for (int u = 1; u <= p.users; ++u) {
    core::Demographics& d = s.demographics[static_cast<size_t>(u)];
    if (demo_rng.Bernoulli(p.unknown_demographics)) continue;
    d.gender = demo_rng.Bernoulli(0.5) ? core::Demographics::kMale
                                       : core::Demographics::kFemale;
    d.age_band = static_cast<uint8_t>(1 + demo_rng.Uniform(6));
    d.region = static_cast<uint16_t>(1 + demo_rng.Uniform(32));
  }
  Rng rng(seed);
  ZipfSampler items(static_cast<size_t>(p.items), p.item_zipf);
  s.actions.resize(n);
  for (size_t i = 0; i < n; ++i) {
    core::UserAction& a = s.actions[i];
    a.user = static_cast<core::UserId>(1 + rng.Uniform(p.users));
    a.item = static_cast<core::ItemId>(1 + items.Sample(rng));
    double u = rng.NextDouble();
    a.action = kTypeMix[std::size(kTypeMix) - 1].type;
    for (const TypeMix& t : kTypeMix) {
      if (u < t.share) {
        a.action = t.type;
        break;
      }
      u -= t.share;
    }
    a.timestamp = static_cast<EventTime>(i) * p.step;
    a.demographics = s.demographics[static_cast<size_t>(a.user)];
  }
  return s;
}

// --- spans -------------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int thread = 0;
};

/// One thread's span buffer; spans stay in memory until the run ends. A
/// null SpanLog* means tracing is off and every ScopedSpan is a no-op.
class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) { spans_.reserve(1 << 16); }

  uint64_t NextId() { return (static_cast<uint64_t>(thread_) << 40) | ++seq_; }
  void Add(const Span& s) { spans_.push_back(s); }
  int thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  int thread_;
  uint64_t seq_ = 0;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
             uint64_t request)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.id = log_->NextId();
    span_.parent = parent;
    span_.request = request;
    span_.thread = log_->thread();
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = NowNs();
    log_->Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Owns every thread's SpanLog for the run (nullptr logs when untraced).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  SpanLog* NewLog() {
    if (!enabled_) return nullptr;
    logs_.push_back(std::make_unique<SpanLog>(static_cast<int>(logs_.size())));
    return logs_.back().get();
  }
  std::vector<Span> All() const {
    std::vector<Span> all;
    for (const auto& log : logs_) {
      all.insert(all.end(), log->spans().begin(), log->spans().end());
    }
    return all;
  }

 private:
  bool enabled_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// Layer of a span: its name up to the first '.'.
std::string LayerOf(const Span& s) {
  const std::string name = s.name;
  return name.substr(0, name.find('.'));
}

/// Mean cost of recording one span, measured on a throwaway log.
double SpanCostNs() {
  SpanLog log(0);
  constexpr int kSpans = 200000;
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan s(&log, "calibrate", 0, 0);
    if (log.spans().size() >= (1u << 16)) log.Clear();
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.thread, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- layer counters ----------------------------------------------------------

struct StoreCounters {
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t invocations = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
};

StoreCounters ReadStore(engine::TencentRec* engine, const std::string& dir) {
  StoreCounters c;
  tdstore::Cluster* store = engine->store();
  for (int s = 0; s < store->num_data_servers(); ++s) {
    tdstore::DataServer* server = store->data_server(s);
    c.reads += server->reads();
    c.writes += server->writes();
    c.invocations += server->invocations();
    if (server->wal() != nullptr) c.wal_records += server->wal()->record_count();
  }
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) c.wal_bytes += entry.file_size(ec);
  }
  return c;
}

StoreCounters Delta(const StoreCounters& a, const StoreCounters& b) {
  return {b.reads - a.reads, b.writes - a.writes,
          b.invocations - a.invocations, b.wal_records - a.wal_records,
          b.wal_bytes - a.wal_bytes};
}

size_t TotalKeys(engine::TencentRec* engine) {
  size_t keys = 0;
  for (int s = 0; s < engine->store()->num_data_servers(); ++s) {
    keys += engine->store()->data_server(s)->TotalKeys();
  }
  return keys;
}

const char* const kComponents[] = {
    "spout",        "pretreatment", "user_history", "item_count",
    "cf_pair",      "similar_list", "group_count",  "hot_list",
};

struct ComponentTotals {
  uint64_t tuples = 0;  ///< executed (bolts) or emitted (spout)
  uint64_t busy_us = 0;
};

// --- deployment --------------------------------------------------------------

/// One engine plus the stream it consumes and what the run has seen of it.
struct Deployment {
  std::unique_ptr<engine::TencentRec> engine;
  Stream stream;
  std::string wal_dir;
  size_t published = 0;           ///< stream prefix handed to TDAccess
  uint64_t history_tuples = 0;    ///< user_history tuples over every run
  int64_t failed_actions = 0;
  std::map<std::string, ComponentTotals> components;  ///< current phase

  EventTime LastEventTime() const {
    return published == 0 ? 0 : stream.actions[published - 1].timestamp;
  }

  /// Publishes stream[published, end), adding its wall time to *secs.
  bool Publish(size_t end, SpanLog* log, uint64_t parent, uint64_t request,
               double* secs) {
    const std::vector<core::UserAction> batch(
        stream.actions.begin() + static_cast<std::ptrdiff_t>(published),
        stream.actions.begin() + static_cast<std::ptrdiff_t>(end));
    ScopedSpan span(log, "tdaccess.publish", parent, request);
    const auto t0 = Clock::now();
    const Status s = engine->PublishActions(batch);
    *secs += WallSeconds(Clock::now() - t0);
    published = end;
    if (!s.ok()) {
      std::fprintf(stderr, "PublishActions failed: %s\n",
                   s.ToString().c_str());
    }
    return s.ok();
  }

  /// One ProcessFromAccess; folds its component metrics into the phase
  /// totals. Returns its wall time in ms, or a negative value on failure.
  double Process(SpanLog* log, uint64_t parent, uint64_t request) {
    ScopedSpan span(log, "engine.process", parent, request);
    const auto t0 = Clock::now();
    const Status s = engine->ProcessFromAccess();
    const double ms = WallMs(Clock::now() - t0);
    if (!s.ok()) {
      std::fprintf(stderr, "ProcessFromAccess failed: %s\n",
                   s.ToString().c_str());
      return -1.0;
    }
    for (const auto& m : engine->last_metrics()) {
      ComponentTotals& c = components[m.component];
      c.tuples += m.component == "spout" ? m.tuples_emitted : m.tuples_executed;
      c.busy_us += m.busy_micros;
      if (m.component == "user_history") history_tuples += m.tuples_executed;
    }
    return ms;
  }
};

struct IngestPhase {
  size_t actions = 0;
  double wall_s = 0.0;
  double publish_s = 0.0;
  size_t backlog_max = 0;
  std::vector<double> process_ms;
  std::vector<double> freshness_ms;
  std::map<std::string, ComponentTotals> components;
  StoreCounters store;
};

/// Bulk ingest: batches of `batch` actions, each published then committed
/// by one ProcessFromAccess, until `limit` actions are published or the
/// deadline passes. An action's freshness runs from its batch's arrival
/// (the start of the cycle that publishes it) to the commit's return.
IngestPhase IngestBulk(Deployment* d, size_t batch, size_t limit,
                       Clock::time_point deadline, SpanLog* log,
                       uint64_t* request) {
  IngestPhase r;
  d->components.clear();
  const StoreCounters before = ReadStore(d->engine.get(), d->wal_dir);
  const auto start = Clock::now();
  limit = std::min(limit, d->stream.actions.size());
  while (d->published < limit && Clock::now() < deadline) {
    const size_t end = std::min(limit, d->published + batch);
    const size_t n = end - d->published;
    ScopedSpan cycle(log, "bench.ingest_cycle", 0, ++*request);
    const auto arrived = Clock::now();
    r.backlog_max = std::max(r.backlog_max, n);
    const bool sent = d->Publish(end, log, cycle.id(), *request, &r.publish_s);
    const double ms = d->Process(log, cycle.id(), *request);
    const double fresh = WallMs(Clock::now() - arrived);
    if (!sent || ms < 0) {
      d->failed_actions += static_cast<int64_t>(n);
      continue;
    }
    r.process_ms.push_back(ms);
    r.freshness_ms.insert(r.freshness_ms.end(), n, fresh);
    r.actions += n;
  }
  r.wall_s = WallSeconds(Clock::now() - start);
  r.components = d->components;
  r.store = Delta(before, ReadStore(d->engine.get(), d->wal_dir));
  return r;
}

/// Generates the stream, creates the engine over an empty WAL dir, and
/// ingests the warm state into the empty Deployment `d`.
bool Setup(const Params& p, uint64_t seed, size_t stream_len,
           const std::string& wal_dir, Deployment* d) {
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  d->stream = Generate(p, seed, stream_len);
  d->wal_dir = wal_dir;
  auto engine = engine::TencentRec::Create(EngineOptions(wal_dir));
  if (!engine.ok()) {
    std::fprintf(stderr, "engine create failed: %s\n",
                 engine.status().ToString().c_str());
    return false;
  }
  d->engine = std::move(engine).value();
  uint64_t request = 0;
  IngestBulk(d, p.bulk_batch, p.warm_actions, Clock::time_point::max(),
             nullptr, &request);
  return d->failed_actions == 0 && d->published == p.warm_actions;
}

// --- serving -----------------------------------------------------------------

struct Served {
  core::UserId user = 0;
  EventTime now = 0;
  core::Recommendations recs;
};

struct ServePhase {
  int64_t recs = 0;
  int64_t failed = 0;
  int64_t malformed = 0;
  double wall_s = 0.0;
  std::vector<double> rec_ms;
  std::vector<Served> samples;
  topo::QueryCache::Stats cache;
  StoreCounters store;
};

/// A served list is well formed when it holds at most n distinct items and
/// is the concatenation of two non-increasing runs: Recommend returns the
/// CF list (predicted ratings) followed by the DB hot-items complement
/// (popularity counts), whose scores live on different scales.
bool WellFormed(const core::Recommendations& recs, size_t n) {
  if (recs.size() > n) return false;
  int rises = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (recs[j].item == recs[i].item) return false;
    }
    if (i > 0 && recs[i].score > recs[i - 1].score) ++rises;
  }
  return rises <= 1;
}

topo::QueryCache::Stats CacheDelta(const topo::QueryCache::Stats& a,
                                   const topo::QueryCache::Stats& b) {
  topo::QueryCache::Stats d;
  d.hits = b.hits - a.hits;
  d.negative_hits = b.negative_hits - a.negative_hits;
  d.misses = b.misses - a.misses;
  d.coalesced = b.coalesced - a.coalesced;
  return d;
}

/// `querents` closed-loop threads, each with its own StoreQuery on the
/// engine's shared QueryCache, serve Zipf-drawn users at event time now()
/// until `stop` is set or the deadline passes.
ServePhase Serve(const Params& p, Deployment* d, int querents, uint64_t seed,
                 Clock::time_point deadline, const std::atomic<bool>* stop,
                 const std::function<EventTime()>& now, Tracer* tracer) {
  ServePhase r;
  engine::TencentRec* engine = d->engine.get();
  const topo::QueryCache::Stats cache_before = engine->query_cache()->stats();
  const StoreCounters store_before = ReadStore(engine, d->wal_dir);
  std::vector<SpanLog*> logs;
  for (int t = 0; t < querents; ++t) logs.push_back(tracer->NewLog());
  struct PerThread {
    int64_t recs = 0, failed = 0, malformed = 0;
    std::vector<double> ms;
    std::vector<Served> samples;
  };
  std::vector<PerThread> per(static_cast<size_t>(querents));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  const ZipfSampler users(static_cast<size_t>(p.users), p.query_user_zipf);
  std::vector<std::thread> pool;
  for (int t = 0; t < querents; ++t) {
    pool.emplace_back([&, t] {
      PerThread& mine = per[static_cast<size_t>(t)];
      SpanLog* log = logs[static_cast<size_t>(t)];
      topo::StoreQuery query(&engine->app(), engine->query_cache());
      Rng rng(seed * 1000003ull + static_cast<uint64_t>(t) + 7);
      mine.ms.reserve(1 << 16);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      uint64_t request = static_cast<uint64_t>(t) << 40;
      while (Clock::now() < deadline &&
             (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
        const core::UserId user =
            static_cast<core::UserId>(1 + users.Sample(rng));
        const core::Demographics& demo =
            d->stream.demographics[static_cast<size_t>(user)];
        const EventTime at = now();
        ScopedSpan rec(log, "bench.rec", 0, ++request);
        const auto q0 = Clock::now();
        Result<core::Recommendations> recs = [&] {
          ScopedSpan call(log, "query.recommend", rec.id(), request);
          return query.Recommend(user, demo, p.rec_n, at);
        }();
        mine.ms.push_back(WallMs(Clock::now() - q0));
        ++mine.recs;
        if (!recs.ok()) {
          ++mine.failed;
          continue;
        }
        if (!WellFormed(*recs, p.rec_n)) ++mine.malformed;
        if (mine.samples.size() < p.replay_per_querent) {
          mine.samples.push_back({user, at, std::move(recs).value()});
        }
      }
    });
  }
  while (ready.load() < querents) std::this_thread::yield();
  const auto start = Clock::now();
  go.store(true);
  for (auto& th : pool) th.join();
  r.wall_s = WallSeconds(Clock::now() - start);
  for (PerThread& t : per) {
    r.recs += t.recs;
    r.failed += t.failed;
    r.malformed += t.malformed;
    r.rec_ms.insert(r.rec_ms.end(), t.ms.begin(), t.ms.end());
    for (Served& s : t.samples) r.samples.push_back(std::move(s));
  }
  r.cache = CacheDelta(cache_before, engine->query_cache()->stats());
  r.store = Delta(store_before, ReadStore(engine, d->wal_dir));
  return r;
}

/// Replays sampled requests single-threaded on a fresh StoreQuery (private
/// cache) over the frozen store; returns how many lists differ.
int64_t ReplayDifferences(const Params& p, Deployment* d,
                          const std::vector<Served>& samples) {
  topo::StoreQuery fresh(&d->engine->app());
  int64_t diffs = 0;
  for (const Served& s : samples) {
    auto again = fresh.Recommend(
        s.user, d->stream.demographics[static_cast<size_t>(s.user)], p.rec_n,
        s.now);
    if (!again.ok() || *again != s.recs) ++diffs;
  }
  return diffs;
}

// --- stream_mixed feeder -----------------------------------------------------

/// Open-loop ingest: action k (counted from the phase start) is due at
/// start + k / rate. One feeder thread publishes whatever has arrived and
/// commits it with ProcessFromAccess; freshness is measured from each
/// action's due time.
IngestPhase IngestOpenLoop(const Params& p, Deployment* d,
                           Clock::time_point deadline, SpanLog* log,
                           std::atomic<EventTime>* committed_time) {
  IngestPhase r;
  d->components.clear();
  const StoreCounters before = ReadStore(d->engine.get(), d->wal_dir);
  const size_t base = d->published;
  const size_t limit = d->stream.actions.size();
  const auto start = Clock::now();
  auto due = [&](size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(k - base) / p.mixed_rate));
  };
  uint64_t request = 0;
  while (d->published < limit) {
    const auto now = Clock::now();
    if (now >= deadline) break;
    const double elapsed = WallSeconds(now - start);
    const size_t arrived = std::min(
        limit, base + static_cast<size_t>(elapsed * p.mixed_rate) + 1);
    if (arrived <= d->published) {
      std::this_thread::sleep_until(due(d->published));
      continue;
    }
    const size_t first = d->published;
    r.backlog_max = std::max(r.backlog_max, arrived - first);
    ScopedSpan cycle(log, "bench.ingest_cycle", 0, ++request);
    const bool sent =
        d->Publish(arrived, log, cycle.id(), request, &r.publish_s);
    const double ms = d->Process(log, cycle.id(), request);
    const auto committed = Clock::now();
    if (!sent || ms < 0) {
      d->failed_actions += static_cast<int64_t>(arrived - first);
      continue;
    }
    r.process_ms.push_back(ms);
    for (size_t k = first; k < arrived; ++k) {
      r.freshness_ms.push_back(WallMs(committed - due(k)));
    }
    r.actions += arrived - first;
    committed_time->store(d->LastEventTime(), std::memory_order_relaxed);
  }
  r.wall_s = WallSeconds(Clock::now() - start);
  r.components = d->components;
  r.store = Delta(before, ReadStore(d->engine.get(), d->wal_dir));
  return r;
}

// --- correctness gate --------------------------------------------------------

struct Gate {
  int64_t item_mismatches = 0;
  int64_t items_checked = 0;
  int64_t pair_mismatches = 0;
  int64_t pairs_checked = 0;
  double serial_actions_per_s = 0.0;
  bool ok = true;
};

/// Sum of a windowed read over tiles one window apart, so every session
/// from 0 to the last is counted exactly once.
template <typename ReadFn>
Result<double> AllSessions(const topo::AppContext& app, EventTime last,
                           const ReadFn& read) {
  const int64_t w = app.options.window_sessions;
  const int64_t last_session = app.SessionOf(last);
  double total = 0.0;
  for (int64_t end = w - 1; end - w < last_session; end += w) {
    auto v = read(end * app.options.session_length);
    if (!v.ok()) return v.status();
    total += *v;
  }
  return total;
}

Gate CheckAgainstOracle(const Params& p, Deployment* d) {
  Gate g;
  const topo::AppContext& app = d->engine->app();
  core::PracticalItemCf oracle(OracleOptions(app.options));
  const auto t0 = Clock::now();
  for (size_t i = 0; i < d->published; ++i) {
    oracle.ProcessAction(d->stream.actions[i]);
  }
  g.serial_actions_per_s =
      static_cast<double>(d->published) / WallSeconds(Clock::now() - t0);

  topo::StoreQuery q(&app);
  const EventTime last = d->LastEventTime();
  std::vector<std::pair<double, core::ItemId>> by_count;
  for (core::ItemId item = 1; item <= p.items; ++item) {
    auto total = AllSessions(app, last, [&](EventTime now) {
      return q.WindowItemCount(item, now);
    });
    const double expect = oracle.counts().ItemCount(item);
    ++g.items_checked;
    if (!total.ok() || *total != expect) ++g.item_mismatches;
    by_count.emplace_back(expect, item);
  }
  std::sort(by_count.begin(), by_count.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  by_count.resize(std::min(by_count.size(), p.pair_check_items));
  for (size_t i = 0; i < by_count.size(); ++i) {
    for (size_t j = i + 1; j < by_count.size(); ++j) {
      const core::ItemId a = by_count[i].second;
      const core::ItemId b = by_count[j].second;
      auto total = AllSessions(app, last, [&](EventTime now) {
        return q.WindowPairCount(a, b, now);
      });
      ++g.pairs_checked;
      if (!total.ok() || *total != oracle.counts().PairCount(a, b)) {
        ++g.pair_mismatches;
      }
    }
  }
  g.ok = g.item_mismatches == 0;
  return g;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PerOp(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--work-dir") {
      a->work_dir = val;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) &&
         (a->workload == "ingest_bulk" || a->workload == "serve_warm" ||
          a->workload == "stream_mixed") &&
         a->seconds > 0;
}

/// Everything one deployment reports.
struct RepResult {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  /// Printed but not part of the result line: the p99 tails, which a
  /// deployment's few-second phase does not measure steadily.
  std::vector<Metric> info;
};

Clock::time_point Deadline(double secs) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(secs));
}

/// Per-layer self time from the spans of one deployment, under the
/// measured phases' roots (bench.ingest_cycle per action batch, bench.rec
/// per recommendation): a span's duration minus its children's.
void AddTraceMetrics(const std::vector<Span>& spans, double span_cost_ns,
                     double actions, double recs, std::vector<Metric>* layer) {
  std::map<uint64_t, const Span*> roots;
  for (const Span& s : spans) {
    if (s.parent == 0 && LayerOf(s) == "bench") roots[s.id] = &s;
  }
  std::map<std::string, double> self_ns;
  double root_ns = 0.0;
  for (const auto& [id, root] : roots) {
    root_ns += static_cast<double>(root->end_ns - root->start_ns);
  }
  self_ns["bench"] = root_ns;
  for (const Span& s : spans) {
    if (roots.count(s.parent) == 0) continue;
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    self_ns[LayerOf(s)] += ns;
    self_ns["bench"] -= ns;
  }
  layer->push_back({"trace.tdaccess.self_us_per_action",
                    PerOp(self_ns["tdaccess"] / 1e3, actions), "us"});
  layer->push_back({"trace.engine.self_us_per_action",
                    PerOp(self_ns["engine"] / 1e3, actions), "us"});
  layer->push_back({"trace.query.self_us_per_rec",
                    PerOp(self_ns["query"] / 1e3, recs), "us"});
  layer->push_back({"trace.bench.self_share", PerOp(self_ns["bench"], root_ns),
                    "share"});
  layer->push_back(
      {"trace.overhead_pct",
       PerOp(100.0 * span_cost_ns * static_cast<double>(spans.size()),
             root_ns),
       "%"});
}

/// One deployment: setup (stream generation, engine creation, warm
/// ingest), the workload's measured phase for `phase_seconds`, the probe of
/// the path that phase leaves idle, then the correctness gate.
RepResult RunRep(const Params& p, const Args& args, int rep,
                 double phase_seconds, double span_cost_ns) {
  RepResult out;
  const std::string& w = args.workload;
  const uint64_t seed = args.seed * 1000 + static_cast<uint64_t>(rep);
  size_t stream_len = p.warm_actions;
  if (w == "ingest_bulk") stream_len += p.bulk_cap;
  if (w == "serve_warm") stream_len += p.probe_batches * p.bulk_batch;
  if (w == "stream_mixed") {
    stream_len += static_cast<size_t>(p.mixed_rate * phase_seconds * 1.5) + 1;
  }

  Deployment d;
  const auto setup_start = Clock::now();
  if (!Setup(p, seed, stream_len, args.work_dir + "/wal", &d)) {
    std::fprintf(stderr, "setup failed\n");
    return out;
  }
  const double setup_s = WallSeconds(Clock::now() - setup_start);

  // Wall time of each step, printed for run-length tuning.
  std::vector<std::pair<const char*, double>> phase_s;
  auto mark = [&phase_s, last = Clock::now()](const char* name) mutable {
    const auto t = Clock::now();
    phase_s.emplace_back(name, WallSeconds(t - last));
    last = t;
  };
  Tracer tracer(args.trace);
  SpanLog* feeder_log = tracer.NewLog();
  uint64_t request = 0;
  IngestPhase ingest;
  ServePhase serve;
  int64_t replay_diffs = 0;
  size_t replayed = 0;  // stays 0 on stream_mixed: its store never freezes
  auto serve_frozen = [&](double secs) {
    const EventTime now = d.LastEventTime();
    serve = Serve(p, &d, p.serve_querents, seed, Deadline(secs), nullptr,
                  [now] { return now; }, &tracer);
    mark("serve");
    replay_diffs = ReplayDifferences(p, &d, serve.samples);
    replayed = serve.samples.size();
    mark("replay");
  };

  if (w == "ingest_bulk") {
    ingest = IngestBulk(&d, p.bulk_batch, d.stream.actions.size(),
                        Deadline(phase_seconds), feeder_log, &request);
    mark("ingest");
    serve_frozen(p.probe_serve_seconds);
  } else if (w == "serve_warm") {
    serve_frozen(phase_seconds);
    ingest = IngestBulk(&d, p.bulk_batch,
                        d.published + p.probe_batches * p.bulk_batch,
                        Clock::time_point::max(), feeder_log, &request);
    mark("ingest");
  } else {
    std::atomic<EventTime> committed{d.LastEventTime()};
    std::atomic<bool> stop{false};
    std::thread feeder([&] {
      ingest = IngestOpenLoop(p, &d, Deadline(phase_seconds), feeder_log,
                              &committed);
      stop.store(true);
    });
    serve = Serve(p, &d, p.mixed_querents, seed, Clock::time_point::max(),
                  &stop,
                  [&committed] {
                    return committed.load(std::memory_order_relaxed);
                  },
                  &tracer);
    feeder.join();
    mark("mixed");
  }

  // Nothing may be left on the topic: an empty ProcessFromAccess consumes
  // zero actions. In traced runs its time is the pure spin-up cost.
  std::vector<double> empty_ms;
  uint64_t leftover = 0;
  bool empty_ok = true;
  for (int i = 0; i < (args.trace ? 15 : 1); ++i) {
    const uint64_t before = d.history_tuples;
    const double ms = d.Process(feeder_log, 0, ++request);
    empty_ok = empty_ok && ms >= 0;
    empty_ms.push_back(ms);
    leftover += d.history_tuples - before;
  }

  // Traced runs time RecommendCf and HotItems separately for the sampled
  // users, on the (now frozen) store.
  std::vector<double> cf_ms, hot_ms;
  if (args.trace) {
    topo::StoreQuery q(&d.engine->app(), d.engine->query_cache());
    for (const Served& s : serve.samples) {
      const auto t0 = Clock::now();
      auto cf = q.RecommendCf(s.user, p.rec_n, s.now);
      const auto t1 = Clock::now();
      auto hot = q.HotItems(
          core::DemographicGroup(
              d.stream.demographics[static_cast<size_t>(s.user)]),
          p.rec_n, s.now);
      const auto t2 = Clock::now();
      if (cf.ok()) cf_ms.push_back(WallMs(t1 - t0));
      if (hot.ok()) hot_ms.push_back(WallMs(t2 - t1));
    }
  }
  mark("probes");
  const Gate gate = CheckAgainstOracle(p, &d);
  mark("gate");

  const bool consumed =
      d.history_tuples == d.published && leftover == 0 && empty_ok;
  out.correct = gate.ok && consumed && serve.malformed == 0 &&
                replay_diffs == 0 && serve.recs > 0 && ingest.actions > 0;
  out.attempted = static_cast<int64_t>(d.published) + serve.recs;
  out.failed = d.failed_actions + serve.failed;

  std::printf(
      "# rep %d gate: items %lld/%lld exact; consumed %s (published %zu, "
      "user_history tuples %llu, leftover %llu); served lists malformed "
      "%lld/%lld; replay differences %lld/%zu; pair counts off oracle "
      "%lld/%lld (reported, not gated)\n",
      rep, static_cast<long long>(gate.items_checked - gate.item_mismatches),
      static_cast<long long>(gate.items_checked), consumed ? "yes" : "NO",
      d.published, static_cast<unsigned long long>(d.history_tuples),
      static_cast<unsigned long long>(leftover),
      static_cast<long long>(serve.malformed),
      static_cast<long long>(serve.recs),
      static_cast<long long>(replay_diffs), replayed,
      static_cast<long long>(gate.pair_mismatches),
      static_cast<long long>(gate.pairs_checked));
  std::printf("# rep %d phases_s: setup=%.2f", rep, setup_s);
  for (const auto& [name, secs] : phase_s) std::printf(" %s=%.2f", name, secs);
  std::printf("\n");
  std::fflush(stdout);

  const double actions = static_cast<double>(ingest.actions);
  const double recs = static_cast<double>(serve.recs);
  out.e2e = {
      {"setup_s", setup_s, "s"},
      {"ingest_actions_per_s", PerOp(actions, ingest.wall_s), "actions/s"},
      {"freshness_ms_p50", Percentile(ingest.freshness_ms, 50), "ms"},
      {"freshness_ms_p90", Percentile(ingest.freshness_ms, 90), "ms"},
      {"recs_per_s", PerOp(recs, serve.wall_s), "recs/s"},
      {"rec_ms_p50", Percentile(serve.rec_ms, 50), "ms"},
      {"rec_ms_p90", Percentile(serve.rec_ms, 90), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };

  out.info = {
      {"freshness_ms_p99", Percentile(ingest.freshness_ms, 99), "ms"},
      {"rec_ms_p99", Percentile(serve.rec_ms, 99), "ms"},
  };

  const topo::QueryCache::Stats& c = serve.cache;
  const double keys_looked_up = static_cast<double>(
      c.hits + c.negative_hits + c.misses + c.coalesced);
  std::vector<Metric>& layer = out.layer;
  layer = {
      {"tdaccess.publish_us_per_action",
       PerOp(ingest.publish_s * 1e6, actions), "us"},
      {"tdaccess.backlog_max_actions", static_cast<double>(ingest.backlog_max),
       "actions"},
      {"engine.process_ms_p50", Percentile(ingest.process_ms, 50), "ms"},
      {"engine.process_empty_ms", Percentile(empty_ms, 50), "ms"},
  };
  for (const char* comp : kComponents) {
    const ComponentTotals& t = ingest.components[comp];
    layer.push_back({std::string("tstorm.") + comp + ".busy_us_per_action",
                     PerOp(static_cast<double>(t.busy_us), actions), "us"});
    layer.push_back({std::string("tstorm.") + comp + ".tuples_per_action",
                     PerOp(static_cast<double>(t.tuples), actions), "tuples"});
  }
  const StoreCounters& is = ingest.store;
  const StoreCounters& ss = serve.store;
  const std::vector<Metric> rest = {
      {"tdstore.reads_per_action", PerOp(is.reads, actions), "ops"},
      {"tdstore.writes_per_action", PerOp(is.writes, actions), "ops"},
      {"tdstore.invocations_per_action", PerOp(is.invocations, actions),
       "calls"},
      {"tdstore.wal_records_per_action", PerOp(is.wal_records, actions),
       "records"},
      {"tdstore.wal_bytes_per_action", PerOp(is.wal_bytes, actions), "B"},
      {"tdstore.keys", static_cast<double>(TotalKeys(d.engine.get())), "keys"},
      {"tdstore.invocations_per_rec", PerOp(ss.invocations, recs), "calls"},
      {"tdstore.reads_per_rec", PerOp(ss.reads, recs), "ops"},
      {"query.keys_per_rec", PerOp(keys_looked_up, recs), "keys"},
      {"query.cache_hit_ratio",
       PerOp(static_cast<double>(c.hits + c.negative_hits), keys_looked_up),
       "share"},
      {"query.coalesced_share",
       PerOp(static_cast<double>(c.coalesced), keys_looked_up), "share"},
      {"query.recommend_cf_ms_p50", Percentile(cf_ms, 50), "ms"},
      {"query.hot_items_ms_p50", Percentile(hot_ms, 50), "ms"},
      {"core.serial_actions_per_s", gate.serial_actions_per_s, "actions/s"},
      {"topo.pair_count_oracle_mismatches",
       static_cast<double>(gate.pair_mismatches), "count"},
  };
  layer.insert(layer.end(), rest.begin(), rest.end());

  if (args.trace) {
    const std::vector<Span> spans = tracer.All();
    AddTraceMetrics(spans, span_cost_ns, actions, recs, &layer);
    std::filesystem::create_directories(args.work_dir + "/traces");
    const std::string path = args.work_dir + "/traces/" + w + "_seed" +
                             std::to_string(args.seed) + "_dep" +
                             std::to_string(rep) + ".json";
    if (WriteChromeTrace(spans, path)) {
      std::printf("# rep %d trace: %zu spans -> %s\n", rep, spans.size(),
                  path.c_str());
    }
  }

  d.engine.reset();
  std::error_code ec;
  std::filesystem::remove_all(d.wal_dir, ec);
  return out;
}

void WriteMetrics(std::FILE* f, const char* kind,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(f, "%s %s %.17g %s\n", kind, m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

/// Runs RunRep in a forked child, so each deployment starts from a fresh
/// process: its own heap, its own peak RSS, no state left by the previous
/// one. The child reports its RepResult over a pipe, one line per field.
/// Returns an empty result if the child fails. The parent has no threads
/// when it forks.
RepResult RunRepIsolated(const Params& p, const Args& args, int rep,
                         double phase_seconds, double span_cost_ns) {
  RepResult out;
  int fds[2];
  if (pipe(fds) != 0) return out;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return out;
  }
  if (pid == 0) {
    close(fds[0]);
    const RepResult r = RunRep(p, args, rep, phase_seconds, span_cost_ns);
    std::FILE* f = fdopen(fds[1], "w");
    if (f == nullptr) _exit(1);
    std::fprintf(f, "status %d %lld %lld\n", r.correct ? 1 : 0,
                 static_cast<long long>(r.attempted),
                 static_cast<long long>(r.failed));
    WriteMetrics(f, "e2e", r.e2e);
    WriteMetrics(f, "layer", r.layer);
    WriteMetrics(f, "info", r.info);
    const bool ok = std::fclose(f) == 0 && !r.e2e.empty();
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::FILE* f = fdopen(fds[0], "r");
  if (f == nullptr) close(fds[0]);
  char kind[16], name[128], unit[32];
  double value = 0.0;
  int correct = 0;
  long long attempted = 0, failed = 0;
  if (f != nullptr &&
      std::fscanf(f, "status %d %lld %lld", &correct, &attempted, &failed) ==
          3) {
    out.correct = correct == 1;
    out.attempted = attempted;
    out.failed = failed;
    while (std::fscanf(f, "%15s %127s %lf %31s", kind, name, &value, unit) ==
           4) {
      const std::string k = kind;
      (k == "e2e" ? out.e2e : k == "layer" ? out.layer : out.info)
          .push_back({name, value, unit});
    }
  }
  if (f != nullptr) std::fclose(f);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return RepResult{};
  }
  return out;
}

/// Per-metric median over the deployments.
std::vector<Metric> MedianOver(const std::vector<RepResult>& reps,
                               std::vector<Metric> RepResult::*field) {
  std::vector<Metric> out = reps.front().*field;
  for (size_t m = 0; m < out.size(); ++m) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back((r.*field)[m].value);
    out[m].value = Percentile(v, 50);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload ingest_bulk|serve_warm|stream_mixed "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  const Params p;
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d cores=%u\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency());
  const engine::TencentRec::Options eo = EngineOptions("");
  std::printf(
      "# config: deployments=%d users=%d items=%d item_zipf=%.2f "
      "query_user_zipf=%.2f step_ms=%lld warm_actions=%zu bulk_batch=%zu "
      "window_sessions=%d session_h=%lld linked_time_h=%lld parallelism=%d "
      "data_servers=%d instances=%d sync_replication=%d durability=%d "
      "query_batching=%d combiner=%d store_cache=%d store_batching=%d "
      "serve_querents=%d mixed_querents=%d mixed_rate=%.0f/s rec_n=%zu\n",
      p.deployments, p.users, p.items, p.item_zipf, p.query_user_zipf,
      static_cast<long long>(p.step / 1000), p.warm_actions, p.bulk_batch,
      eo.app.window_sessions,
      static_cast<long long>(eo.app.session_length / Hours(1)),
      static_cast<long long>(eo.app.linked_time / Hours(1)),
      eo.app.parallelism, eo.store.num_data_servers, eo.store.num_instances,
      eo.store.sync_replication ? 1 : 0, eo.store.durability.enabled ? 1 : 0,
      eo.app.enable_query_batching ? 1 : 0, eo.app.enable_combiner ? 1 : 0,
      eo.app.enable_cache ? 1 : 0, eo.app.enable_store_batching ? 1 : 0,
      p.serve_querents, p.mixed_querents, p.mixed_rate, p.rec_n);
  std::fflush(stdout);

  const double span_cost_ns = args.trace ? SpanCostNs() : 0.0;
  std::vector<RepResult> reps;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (int rep = 0; rep < p.deployments; ++rep) {
    reps.push_back(RunRepIsolated(p, args, rep, args.seconds / p.deployments,
                                  span_cost_ns));
    const RepResult& r = reps.back();
    if (r.e2e.empty()) {
      std::fprintf(stderr, "deployment %d failed\n", rep);
      return 1;
    }
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
  }
  for (size_t r = 0; r < reps.size(); ++r) {
    std::printf("# rep %zu e2e:", r);
    for (const Metric& m : reps[r].e2e) {
      std::printf(" %s=%.4g", m.name.c_str(), m.value);
    }
    for (const Metric& m : reps[r].info) {
      std::printf(" %s=%.4g", m.name.c_str(), m.value);
    }
    std::printf("\n");
  }
  const std::vector<Metric> e2e = MedianOver(reps, &RepResult::e2e);
  const std::vector<Metric> layer = MedianOver(reps, &RepResult::layer);
  const std::vector<Metric> info = MedianOver(reps, &RepResult::info);

  std::printf("# failed_share=%.6f (%lld failed / %lld attempted)\n",
              PerOp(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  for (const Metric& m : e2e) {
    std::printf("# e2e   %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : layer) {
    std::printf("# layer %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : info) {
    std::printf("# info  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  const std::vector<Metric>& out = args.trace ? layer : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
