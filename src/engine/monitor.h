#ifndef TENCENTREC_ENGINE_MONITOR_H_
#define TENCENTREC_ENGINE_MONITOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "engine/tencentrec.h"
#include "obs/health.h"

namespace tencentrec::engine {

/// The "Monitor" component of Fig. 9: a point-in-time operational snapshot
/// of a TencentRec deployment — topology throughput from the last run,
/// TDStore load and key counts per data server, ingestion backlog on the
/// TDAccess topic, and every instrument registered in the process-wide
/// MetricRegistry (event-to-store latency per component, store op
/// latency, consumer staleness).
struct MonitorSnapshot {
  struct ComponentRow {
    std::string component;
    uint64_t executed = 0;
    uint64_t emitted = 0;
    uint64_t restarts = 0;
    uint64_t busy_micros = 0;
  };
  struct StoreRow {
    int server_id = 0;
    bool down = false;
    int64_t reads = 0;
    int64_t writes = 0;
    size_t keys = 0;
  };
  /// One registry latency histogram, frozen at collection time. Percentiles
  /// are computed from this snapshot so a single report is self-consistent.
  struct LatencyRow {
    std::string name;
    LatencyHistogram::Snapshot hist;
  };
  struct CounterRow {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    int64_t value = 0;
  };

  /// App name the engine runs (keys the "topo.<app>.<component>.*"
  /// histogram names back to topology rows).
  std::string app;
  std::vector<ComponentRow> topology;
  std::vector<StoreRow> store;
  std::vector<LatencyRow> latencies;
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  /// Messages published to the app topic that the processing group has not
  /// yet consumed (real-time lag).
  int64_t ingestion_lag = 0;
  /// MonoMicros at collection time; lets two snapshots turn cumulative
  /// totals into rates and busy time into utilization.
  uint64_t wall_micros = 0;

  /// The event-to-store latency histogram of `component`, or nullptr if it
  /// never recorded (e.g. metrics disabled).
  const LatencyHistogram::Snapshot* ComponentLatency(
      const std::string& component) const;
  const LatencyRow* FindLatency(const std::string& name) const;
};

/// Collects a snapshot from a running engine.
Result<MonitorSnapshot> CollectMonitorSnapshot(TencentRec* engine);

/// Renders a snapshot as a human-readable report (topology rows annotated
/// with p50/p95/p99 event-to-store latency where available, plus a full
/// "== latency (us) ==" section over every registry histogram).
std::string FormatMonitorSnapshot(const MonitorSnapshot& snapshot);

/// OpenMetrics-flavoured text exposition: counters, gauges, and cumulative
/// `le`-bucketed histograms keyed by a `name` label so the dotted registry
/// names survive unmangled, histogram buckets annotated with
/// `# {trace_id="..."}` exemplars (ids rendered exactly as /traces renders
/// them), terminated with `# EOF`. Serve it with the OpenMetrics
/// Content-Type (see engine wiring); classic Prometheus scrapers that
/// negotiate text/plain still parse everything but the exemplars.
std::string ExportPrometheusText(const MonitorSnapshot& snapshot);

/// Machine-readable JSON document of the full snapshot.
std::string ExportJson(const MonitorSnapshot& snapshot);

/// Rates derived from two snapshots of the same engine taken `wall_seconds`
/// apart. Cumulative counters that went backwards (a topology rerun resets
/// its per-run rows) clamp to zero rather than reporting negative rates.
struct SnapshotDelta {
  double wall_seconds = 0.0;
  /// Tuples executed across all topology components per second.
  double events_per_second = 0.0;
  double store_reads_per_second = 0.0;
  double store_writes_per_second = 0.0;
  int64_t lag_delta = 0;

  struct Utilization {
    std::string component;
    /// Busy time accrued between the snapshots divided by wall time; can
    /// exceed 1.0 for components running multiple instances.
    double busy_over_wall = 0.0;
  };
  std::vector<Utilization> utilization;
};

SnapshotDelta ComputeSnapshotDelta(const MonitorSnapshot& before,
                                   const MonitorSnapshot& after);

/// Detects wedged pipeline components: a source is *stalled* when its
/// progress counter stops advancing while work is visibly queued for it —
/// progress without backlog is idle (fine), backlog without progress is
/// stuck (a deadlocked shard, a worker blocked on a dead store). Each sweep
/// compares against the previous one, so detection latency is one to two
/// periods.
///
/// On the healthy->stalled edge the watchdog files the component as
/// unhealthy in the HealthRegistry (flipping /healthz to degraded) and logs
/// a one-shot diagnostic dump: backlog depth, last progress value, and the
/// most recent trace span the component recorded, if any. Recovery —
/// progress advancing again — clears the health entry. Backlog draining to
/// zero *without* progress is NOT recovery (the queue may have been closed
/// out from under a dead worker); only forward motion clears the flag.
///
/// Sources are engine-provided closures (a tstorm component's heartbeat +
/// queue depth, a TDAccess consumer), so this class depends on nothing but
/// obs/. Registration is allowed while the thread runs; a new source is
/// seeded on its first sweep and judged from its second.
class StallWatchdog {
 public:
  struct Options {
    uint64_t period_ms = 250;
    /// Where stalled components are filed; may be null (log-only mode).
    obs::HealthRegistry* health = nullptr;
  };

  struct Source {
    std::string name;
    /// Monotone progress counter; must be safe to call from the watchdog
    /// thread while the component runs.
    std::function<uint64_t()> progress;
    /// Work currently queued for the component (0 = none, never stalls).
    std::function<uint64_t()> backlog;
  };

  explicit StallWatchdog(Options options)
      : options_(options),
        stalls_counter_(MetricRegistry::Default().GetCounter("watchdog.stalls")),
        stalled_gauge_(
            MetricRegistry::Default().GetGauge("watchdog.stalled_components")) {}
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Registers a source; returns an id for Unregister. Safe while running.
  int64_t Register(Source source);
  void Unregister(int64_t id);

  void Start();
  void Stop();

  /// Runs one sweep synchronously (deterministic tests; also valid without
  /// Start()). The first sweep over a source only seeds its baseline.
  void CheckNow();

  /// Names of currently-stalled components, sorted.
  std::vector<std::string> StalledComponents() const;

  /// Names of every registered source, sorted.
  std::vector<std::string> SourceNames() const;

  uint64_t sweeps() const;

 private:
  struct Watch {
    int64_t id = 0;
    Source source;
    uint64_t last_progress = 0;
    bool seeded = false;
    bool stalled = false;
  };

  void Sweep();
  void Loop();

  Options options_;
  /// watchdog.stalls (cumulative detection edges) and
  /// watchdog.stalled_components (currently stalled) — the instruments the
  /// default "stall-free" SLO reads off the time-series ring.
  Counter* stalls_counter_;
  Gauge* stalled_gauge_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Watch> watches_;
  int64_t next_id_ = 1;
  uint64_t sweeps_ = 0;
  bool running_ = false;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace tencentrec::engine

#endif  // TENCENTREC_ENGINE_MONITOR_H_
