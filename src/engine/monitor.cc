#include "engine/monitor.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>

#include "common/logging.h"
#include "common/stage.h"
#include "common/trace.h"

namespace tencentrec::engine {

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char line[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof(line), fmt, args);
  va_end(args);
  *out += line;
}

/// Escapes a Prometheus label value: backslash, double-quote and newline
/// are the three characters the text exposition reserves.
std::string PromEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Escapes a JSON string: quotes, backslashes, and every control character
/// (Prometheus rules stop at \n; JSON requires \u escapes below 0x20).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

const MonitorSnapshot::LatencyRow* MonitorSnapshot::FindLatency(
    const std::string& name) const {
  for (const auto& row : latencies) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

const LatencyHistogram::Snapshot* MonitorSnapshot::ComponentLatency(
    const std::string& component) const {
  const LatencyRow* row =
      FindLatency("topo." + app + "." + component + ".event_to_store_us");
  return row == nullptr ? nullptr : &row->hist;
}

Result<MonitorSnapshot> CollectMonitorSnapshot(TencentRec* engine) {
  MonitorSnapshot snapshot;
  snapshot.app = engine->options().app.app;
  snapshot.wall_micros = MonoMicros();

  for (const auto& m : engine->last_metrics()) {
    snapshot.topology.push_back({m.component, m.tuples_executed,
                                 m.tuples_emitted, m.restarts,
                                 m.busy_micros});
  }

  tdstore::Cluster* store = engine->store();
  for (int s = 0; s < store->num_data_servers(); ++s) {
    const tdstore::DataServer* server = store->data_server(s);
    MonitorSnapshot::StoreRow row;
    row.server_id = s;
    row.down = server->IsDown();
    row.reads = server->reads();
    row.writes = server->writes();
    row.keys = server->IsDown() ? 0 : server->TotalKeys();
    snapshot.store.push_back(row);
  }

  // Ingestion lag: end offsets minus the processing group's commits.
  tdaccess::Cluster* access = engine->access();
  const std::string& topic = engine->options().topic;
  const std::string group = "tdprocess:" + engine->options().app.app;
  auto route = access->master().GetRoute(topic);
  if (!route.ok()) return route.status();
  for (const auto& pa : route->partitions) {
    tdaccess::DataServer* server = access->data_server(pa.server_id);
    if (server == nullptr || server->IsDown()) continue;
    auto end = server->EndOffset(topic, pa.partition);
    if (!end.ok()) continue;
    auto committed = access->master().FetchOffset(topic, group, pa.partition);
    if (!committed.ok()) continue;
    snapshot.ingestion_lag += *end - *committed;
  }

  // Pull every registered instrument; the registry listings are sorted, so
  // reports and exports are stable across collections.
  MetricRegistry& reg = MetricRegistry::Default();
  for (auto& [name, value] : reg.Counters()) {
    snapshot.counters.push_back({name, value});
  }
  for (auto& [name, value] : reg.Gauges()) {
    snapshot.gauges.push_back({name, value});
  }
  for (auto& [name, hist] : reg.Histograms()) {
    snapshot.latencies.push_back({name, hist});
  }
  return snapshot;
}

std::string FormatMonitorSnapshot(const MonitorSnapshot& snapshot) {
  std::string out;

  out += "== topology (last run) ==\n";
  for (const auto& row : snapshot.topology) {
    const double mean_us =
        row.executed > 0 ? static_cast<double>(row.busy_micros) /
                               static_cast<double>(row.executed)
                         : 0.0;
    Appendf(&out,
            "  %-16s executed=%-10llu emitted=%-10llu restarts=%-4llu "
            "busy=%llums mean=%.1fus",
            row.component.c_str(),
            static_cast<unsigned long long>(row.executed),
            static_cast<unsigned long long>(row.emitted),
            static_cast<unsigned long long>(row.restarts),
            static_cast<unsigned long long>(row.busy_micros / 1000), mean_us);
    if (const auto* e2s = snapshot.ComponentLatency(row.component);
        e2s != nullptr && e2s->count > 0) {
      Appendf(&out, " e2s[p50=%.0fus p95=%.0fus p99=%.0fus max=%lluus]",
              e2s->Percentile(0.50), e2s->Percentile(0.95),
              e2s->Percentile(0.99),
              static_cast<unsigned long long>(e2s->max));
    }
    out += "\n";
  }
  out += "== tdstore ==\n";
  for (const auto& row : snapshot.store) {
    Appendf(&out,
            "  server %-2d %-5s reads=%-10lld writes=%-10lld keys=%zu\n",
            row.server_id, row.down ? "DOWN" : "up",
            static_cast<long long>(row.reads),
            static_cast<long long>(row.writes), row.keys);
  }
  Appendf(&out, "== tdaccess ==\n  ingestion lag: %lld\n",
          static_cast<long long>(snapshot.ingestion_lag));
  if (!snapshot.latencies.empty()) {
    out += "== latency (us) ==\n";
    for (const auto& row : snapshot.latencies) {
      if (row.hist.count == 0) continue;
      Appendf(&out,
              "  %-44s count=%-8llu p50=%-8.0f p95=%-8.0f p99=%-8.0f "
              "max=%llu\n",
              row.name.c_str(),
              static_cast<unsigned long long>(row.hist.count),
              row.hist.Percentile(0.50), row.hist.Percentile(0.95),
              row.hist.Percentile(0.99),
              static_cast<unsigned long long>(row.hist.max));
    }
  }
  return out;
}

std::string ExportPrometheusText(const MonitorSnapshot& snapshot) {
  std::string out;

  out += "# HELP tencentrec_counter Cumulative event counts by instrument.\n";
  out += "# TYPE tencentrec_counter counter\n";
  for (const auto& row : snapshot.counters) {
    Appendf(&out, "tencentrec_counter{name=\"%s\"} %llu\n",
            PromEscape(row.name).c_str(),
            static_cast<unsigned long long>(row.value));
  }

  out += "# HELP tencentrec_gauge Instantaneous values by instrument.\n";
  out += "# TYPE tencentrec_gauge gauge\n";
  for (const auto& row : snapshot.gauges) {
    Appendf(&out, "tencentrec_gauge{name=\"%s\"} %lld\n",
            PromEscape(row.name).c_str(), static_cast<long long>(row.value));
  }
  Appendf(&out, "tencentrec_gauge{name=\"engine.ingestion_lag\"} %lld\n",
          static_cast<long long>(snapshot.ingestion_lag));

  out += "# HELP tencentrec_store_ops_total TDStore ops by server.\n";
  out += "# TYPE tencentrec_store_ops_total counter\n";
  for (const auto& row : snapshot.store) {
    Appendf(&out,
            "tencentrec_store_ops_total{server=\"%d\",op=\"read\"} %lld\n",
            row.server_id, static_cast<long long>(row.reads));
    Appendf(&out,
            "tencentrec_store_ops_total{server=\"%d\",op=\"write\"} %lld\n",
            row.server_id, static_cast<long long>(row.writes));
  }

  out += "# HELP tencentrec_component_executed_total Tuples executed in the "
         "last topology run.\n";
  out += "# TYPE tencentrec_component_executed_total counter\n";
  for (const auto& row : snapshot.topology) {
    Appendf(&out,
            "tencentrec_component_executed_total{component=\"%s\"} %llu\n",
            PromEscape(row.component).c_str(),
            static_cast<unsigned long long>(row.executed));
  }

  out += "# HELP tencentrec_latency_us Latency distributions in "
         "microseconds.\n";
  out += "# TYPE tencentrec_latency_us histogram\n";
  for (const auto& row : snapshot.latencies) {
    const std::string label = PromEscape(row.name);
    uint64_t cumulative = 0;
    for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      const uint64_t n = row.hist.buckets[static_cast<size_t>(b)];
      if (n == 0) continue;  // sparse: only emit buckets that move the CDF
      cumulative += n;
      Appendf(&out,
              "tencentrec_latency_us_bucket{name=\"%s\",le=\"%llu\"} %llu",
              label.c_str(),
              static_cast<unsigned long long>(
                  LatencyHistogram::BucketUpperBound(b)),
              static_cast<unsigned long long>(cumulative));
      // OpenMetrics exemplar: the trace id of a recent sample in this
      // bucket, rendered exactly as /traces renders ids so the two join.
      const uint64_t exemplar = row.hist.exemplars[static_cast<size_t>(b)];
      if (exemplar != 0) {
        Appendf(&out, " # {trace_id=\"%016llx\"} %llu",
                static_cast<unsigned long long>(exemplar),
                static_cast<unsigned long long>(
                    LatencyHistogram::BucketUpperBound(b)));
      }
      out += "\n";
    }
    Appendf(&out,
            "tencentrec_latency_us_bucket{name=\"%s\",le=\"+Inf\"} %llu\n",
            label.c_str(), static_cast<unsigned long long>(row.hist.count));
    Appendf(&out, "tencentrec_latency_us_sum{name=\"%s\"} %llu\n",
            label.c_str(), static_cast<unsigned long long>(row.hist.sum));
    Appendf(&out, "tencentrec_latency_us_count{name=\"%s\"} %llu\n",
            label.c_str(), static_cast<unsigned long long>(row.hist.count));
  }
  out += "# EOF\n";
  return out;
}

std::string ExportJson(const MonitorSnapshot& snapshot) {
  std::string out = "{";
  Appendf(&out, "\"app\":\"%s\",", JsonEscape(snapshot.app).c_str());
  Appendf(&out, "\"wall_micros\":%llu,",
          static_cast<unsigned long long>(snapshot.wall_micros));
  Appendf(&out, "\"ingestion_lag\":%lld,",
          static_cast<long long>(snapshot.ingestion_lag));

  out += "\"topology\":[";
  for (size_t i = 0; i < snapshot.topology.size(); ++i) {
    const auto& row = snapshot.topology[i];
    Appendf(&out,
            "%s{\"component\":\"%s\",\"executed\":%llu,\"emitted\":%llu,"
            "\"restarts\":%llu,\"busy_micros\":%llu}",
            i == 0 ? "" : ",", JsonEscape(row.component).c_str(),
            static_cast<unsigned long long>(row.executed),
            static_cast<unsigned long long>(row.emitted),
            static_cast<unsigned long long>(row.restarts),
            static_cast<unsigned long long>(row.busy_micros));
  }
  out += "],\"store\":[";
  for (size_t i = 0; i < snapshot.store.size(); ++i) {
    const auto& row = snapshot.store[i];
    Appendf(&out,
            "%s{\"server\":%d,\"down\":%s,\"reads\":%lld,\"writes\":%lld,"
            "\"keys\":%zu}",
            i == 0 ? "" : ",", row.server_id, row.down ? "true" : "false",
            static_cast<long long>(row.reads),
            static_cast<long long>(row.writes), row.keys);
  }
  out += "],\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    Appendf(&out, "%s\"%s\":%llu", i == 0 ? "" : ",",
            JsonEscape(snapshot.counters[i].name).c_str(),
            static_cast<unsigned long long>(snapshot.counters[i].value));
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    Appendf(&out, "%s\"%s\":%lld", i == 0 ? "" : ",",
            JsonEscape(snapshot.gauges[i].name).c_str(),
            static_cast<long long>(snapshot.gauges[i].value));
  }
  out += "},\"latencies\":{";
  bool first = true;
  for (const auto& row : snapshot.latencies) {
    Appendf(&out,
            "%s\"%s\":{\"count\":%llu,\"sum\":%llu,\"min\":%llu,"
            "\"max\":%llu,\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}",
            first ? "" : ",", JsonEscape(row.name).c_str(),
            static_cast<unsigned long long>(row.hist.count),
            static_cast<unsigned long long>(row.hist.sum),
            static_cast<unsigned long long>(
                row.hist.count > 0 ? row.hist.min : 0),
            static_cast<unsigned long long>(row.hist.max),
            row.hist.Percentile(0.50), row.hist.Percentile(0.95),
            row.hist.Percentile(0.99));
    first = false;
  }
  out += "}}";
  return out;
}

SnapshotDelta ComputeSnapshotDelta(const MonitorSnapshot& before,
                                   const MonitorSnapshot& after) {
  SnapshotDelta delta;
  const uint64_t wall = after.wall_micros > before.wall_micros
                            ? after.wall_micros - before.wall_micros
                            : 0;
  delta.wall_seconds = static_cast<double>(wall) / 1e6;
  delta.lag_delta = after.ingestion_lag - before.ingestion_lag;
  if (wall == 0) {
    // Same instant (coarse clocks make this reachable): rates and
    // utilization are undefined, so report zeros instead of dividing —
    // but still emit one utilization row per component so consumers can
    // iterate the delta without special-casing.
    for (const auto& row : after.topology) {
      delta.utilization.push_back({row.component, 0.0});
    }
    return delta;
  }

  auto clamped = [](uint64_t later, uint64_t earlier) -> double {
    return later > earlier ? static_cast<double>(later - earlier) : 0.0;
  };

  double executed = 0.0;
  for (const auto& row : after.topology) {
    uint64_t prior_executed = 0;
    uint64_t prior_busy = 0;
    for (const auto& b : before.topology) {
      if (b.component == row.component) {
        prior_executed = b.executed;
        prior_busy = b.busy_micros;
        break;
      }
    }
    executed += clamped(row.executed, prior_executed);
    delta.utilization.push_back(
        {row.component,
         clamped(row.busy_micros, prior_busy) / static_cast<double>(wall)});
  }
  delta.events_per_second = executed / delta.wall_seconds;

  double reads = 0.0;
  double writes = 0.0;
  for (const auto& row : after.store) {
    int64_t prior_reads = 0;
    int64_t prior_writes = 0;
    for (const auto& b : before.store) {
      if (b.server_id == row.server_id) {
        prior_reads = b.reads;
        prior_writes = b.writes;
        break;
      }
    }
    reads += static_cast<double>(std::max<int64_t>(0, row.reads - prior_reads));
    writes +=
        static_cast<double>(std::max<int64_t>(0, row.writes - prior_writes));
  }
  delta.store_reads_per_second = reads / delta.wall_seconds;
  delta.store_writes_per_second = writes / delta.wall_seconds;
  return delta;
}

// --- StallWatchdog ----------------------------------------------------------

StallWatchdog::~StallWatchdog() { Stop(); }

int64_t StallWatchdog::Register(Source source) {
  std::lock_guard<std::mutex> lock(mu_);
  Watch w;
  w.id = next_id_++;
  w.source = std::move(source);
  watches_.push_back(std::move(w));
  return watches_.back().id;
}

void StallWatchdog::Unregister(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = watches_.begin(); it != watches_.end(); ++it) {
    if (it->id != id) continue;
    if (it->stalled && options_.health != nullptr) {
      options_.health->Clear(it->source.name);
    }
    watches_.erase(it);
    return;
  }
}

void StallWatchdog::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void StallWatchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void StallWatchdog::Loop() {
  RegisterStageThread("obs.watchdog");
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.period_ms),
                 [&] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    Sweep();
    lock.lock();
  }
}

void StallWatchdog::CheckNow() { Sweep(); }

void StallWatchdog::Sweep() {
  struct Sample {
    uint64_t progress = 0;
    uint64_t backlog = 0;
  };
  // Holding mu_ while the closures run is safe — they only touch their
  // component's atomics and queue locks, never this watchdog — and keeps a
  // sweep atomic with respect to Register/Unregister.
  std::lock_guard<std::mutex> lock(mu_);
  ++sweeps_;
  int64_t stalled_now = 0;
  for (auto& watch : watches_) {
    Watch* w = &watch;
    const Sample sample{w->source.progress(), w->source.backlog()};

    if (!w->seeded) {
      w->seeded = true;
      w->last_progress = sample.progress;
      continue;
    }
    const bool advanced = sample.progress != w->last_progress;
    w->last_progress = sample.progress;

    if (advanced) {
      if (w->stalled) {
        w->stalled = false;
        if (options_.health != nullptr) {
          options_.health->Set(w->source.name, true);
        }
        TR_LOG(kInfo, "watchdog: %s recovered (progress=%llu)",
               w->source.name.c_str(),
               static_cast<unsigned long long>(sample.progress));
      }
      continue;
    }
    // No forward motion. Stalled only if work is visibly waiting;
    // no-progress-no-backlog is idle. Already-stalled components stay
    // stalled until progress resumes (a drained-but-dead worker is still
    // dead).
    if (!w->stalled && sample.backlog > 0) {
      w->stalled = true;
      stalls_counter_->Add(1);
      char reason[128];
      std::snprintf(reason, sizeof(reason),
                    "no progress for one watchdog period with backlog=%llu",
                    static_cast<unsigned long long>(sample.backlog));
      if (options_.health != nullptr) {
        options_.health->Set(w->source.name, false, reason);
      }
      // One-shot diagnostic dump on the detection edge.
      TraceSpan last_span;
      const bool have_span =
          Tracer::Default().LastSpanNamed(w->source.name, &last_span);
      if (have_span) {
        TR_LOG(kWarning,
               "watchdog: %s STALLED backlog=%llu progress=%llu "
               "last_span=[start=%llu dur=%lluus tid=%u]",
               w->source.name.c_str(),
               static_cast<unsigned long long>(sample.backlog),
               static_cast<unsigned long long>(sample.progress),
               static_cast<unsigned long long>(last_span.start_micros),
               static_cast<unsigned long long>(last_span.duration_micros),
               last_span.tid);
      } else {
        TR_LOG(kWarning,
               "watchdog: %s STALLED backlog=%llu progress=%llu "
               "(no recorded span)",
               w->source.name.c_str(),
               static_cast<unsigned long long>(sample.backlog),
               static_cast<unsigned long long>(sample.progress));
      }
    }
  }
  for (const auto& w : watches_) {
    if (w.stalled) ++stalled_now;
  }
  stalled_gauge_->Set(stalled_now);
}

std::vector<std::string> StallWatchdog::StalledComponents() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& w : watches_) {
    if (w.stalled) out.push_back(w.source.name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> StallWatchdog::SourceNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& w : watches_) out.push_back(w.source.name);
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t StallWatchdog::sweeps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sweeps_;
}

}  // namespace tencentrec::engine
