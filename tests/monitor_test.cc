#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "engine/monitor.h"
#include "engine/tencentrec.h"

namespace tencentrec::engine {
namespace {

using core::ActionType;
using core::Demographics;
using core::UserAction;

UserAction Act(core::UserId user, core::ItemId item, ActionType type,
               EventTime ts) {
  UserAction a;
  a.user = user;
  a.item = item;
  a.action = type;
  a.timestamp = ts;
  a.demographics.gender = Demographics::kMale;
  a.demographics.age_band = 2;
  return a;
}

std::vector<UserAction> SeededTraffic() {
  std::vector<UserAction> actions;
  EventTime t = 0;
  for (core::UserId u = 1; u <= 8; ++u) {
    actions.push_back(Act(u, 101, ActionType::kClick, t += Seconds(1)));
    actions.push_back(Act(u, 102, ActionType::kClick, t += Seconds(1)));
    actions.push_back(Act(u, 103, ActionType::kBrowse, t += Seconds(1)));
  }
  return actions;
}

/// Deterministic snapshot assembled by hand, so renderer output is golden.
MonitorSnapshot HandBuiltSnapshot() {
  MonitorSnapshot snapshot;
  snapshot.app = "golden";
  snapshot.wall_micros = 1000000;
  snapshot.ingestion_lag = 5;
  snapshot.topology.push_back({"spout", 0, 100, 0, 0});
  snapshot.topology.push_back({"user_history", 100, 240, 1, 2000});
  snapshot.store.push_back({0, false, 50, 30, 12});
  snapshot.store.push_back({1, true, 7, 3, 0});
  snapshot.counters.push_back({"tdaccess.t.g.consumed", 100});
  snapshot.gauges.push_back({"tdaccess.t.g.lag", 5});

  SetMetricsEnabled(true);
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v * 10);
  snapshot.latencies.push_back(
      {"topo.golden.user_history.event_to_store_us", h.Snap()});
  return snapshot;
}

// --- golden renderer tests --------------------------------------------------

TEST(MonitorFormatTest, HumanReportSections) {
  const std::string report = FormatMonitorSnapshot(HandBuiltSnapshot());
  EXPECT_NE(report.find("== topology (last run) =="), std::string::npos);
  EXPECT_NE(report.find("== tdstore =="), std::string::npos);
  EXPECT_NE(report.find("== tdaccess =="), std::string::npos);
  EXPECT_NE(report.find("== latency (us) =="), std::string::npos);
  EXPECT_NE(report.find("ingestion lag: 5"), std::string::npos);
  EXPECT_NE(report.find("server 1  DOWN"), std::string::npos);
  // The instrumented component row grows e2s percentile columns.
  EXPECT_NE(report.find("e2s[p50="), std::string::npos);
  EXPECT_NE(report.find("topo.golden.user_history.event_to_store_us"),
            std::string::npos);
  // The uninstrumented spout row must not.
  const size_t spout_pos = report.find("spout");
  const size_t spout_eol = report.find('\n', spout_pos);
  EXPECT_EQ(report.substr(spout_pos, spout_eol - spout_pos).find("e2s["),
            std::string::npos);
}

TEST(MonitorFormatTest, JsonExportShape) {
  const std::string json = ExportJson(HandBuiltSnapshot());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"app\":\"golden\""), std::string::npos);
  EXPECT_NE(json.find("\"ingestion_lag\":5"), std::string::npos);
  EXPECT_NE(json.find("\"wall_micros\":1000000"), std::string::npos);
  EXPECT_NE(json.find("\"component\":\"user_history\""), std::string::npos);
  EXPECT_NE(json.find("\"down\":true"), std::string::npos);
  EXPECT_NE(json.find("\"tdaccess.t.g.consumed\":100"), std::string::npos);
  EXPECT_NE(
      json.find("\"topo.golden.user_history.event_to_store_us\":{\"count\":100"),
      std::string::npos);
  // Structural sanity: balanced braces/brackets, no stray newlines.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_NE(c, '\n');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

/// Minimal OpenMetrics text-exposition validator: every non-comment line is
/// `metric_name{labels} value` (bucket lines may carry a
/// `# {trace_id="..."} ts` exemplar annotation), histogram bucket series are
/// cumulative and non-decreasing, every histogram's +Inf bucket equals its
/// _count, and the document ends with `# EOF`.
void ValidatePrometheusText(const std::string& text) {
  std::map<std::string, uint64_t> last_bucket;   // series -> last cumulative
  std::map<std::string, uint64_t> inf_bucket;    // series -> +Inf value
  std::map<std::string, uint64_t> count_series;  // series -> _count value
  std::istringstream in(text);
  std::string line;
  bool saw_eof = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    EXPECT_FALSE(saw_eof) << "content after # EOF: " << line;
    if (line[0] == '#') {
      if (line == "# EOF") {
        saw_eof = true;
        continue;
      }
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    // Exemplar annotations ride after the value; strip (and sanity-check)
    // them before the series/value split.
    const size_t exemplar = line.find(" # ");
    if (exemplar != std::string::npos) {
      EXPECT_NE(line.find("{trace_id=\"", exemplar), std::string::npos)
          << line;
      line = line.substr(0, exemplar);
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(series.empty()) << line;
    ASSERT_TRUE(std::isalpha(static_cast<unsigned char>(series[0])) ||
                series[0] == '_')
        << line;
    // Value parses as a number.
    size_t parsed = 0;
    const double v = std::stod(value, &parsed);
    EXPECT_EQ(parsed, value.size()) << line;
    EXPECT_GE(v, 0.0) << line;
    // Balanced label braces.
    const size_t open = series.find('{');
    if (open != std::string::npos) {
      ASSERT_EQ(series.back(), '}') << line;
      EXPECT_EQ(series.find('{', open + 1), std::string::npos) << line;
    }
    // Histogram invariants, keyed by the full label set minus `le`.
    const size_t le = series.find(",le=\"");
    if (series.rfind("tencentrec_latency_us_bucket", 0) == 0 &&
        le != std::string::npos) {
      const std::string key = series.substr(0, le);
      const auto n = static_cast<uint64_t>(v);
      if (series.find("le=\"+Inf\"") != std::string::npos) {
        inf_bucket[key] = n;
      } else {
        auto it = last_bucket.find(key);
        if (it != last_bucket.end()) {
          EXPECT_GE(n, it->second) << "non-monotone CDF: " << line;
        }
        last_bucket[key] = n;
      }
    }
    if (series.rfind("tencentrec_latency_us_count", 0) == 0) {
      count_series[series.substr(27)] = static_cast<uint64_t>(v);
    }
  }
  for (const auto& [key, n] : inf_bucket) {
    auto it = last_bucket.find(key);
    if (it != last_bucket.end()) {
      EXPECT_GE(n, it->second) << key;
    }
  }
  EXPECT_TRUE(saw_eof) << "missing # EOF trailer";
  // Every histogram emitted a _count matching its +Inf bucket.
  for (const auto& [key, n] : inf_bucket) {
    // key is "tencentrec_latency_us_bucket{name=\"...\"" minus le; the
    // corresponding count label set is the same text after the family name.
    const std::string labels = key.substr(key.find('{')) + "}";
    auto it = count_series.find(labels);
    ASSERT_NE(it, count_series.end()) << key;
    EXPECT_EQ(it->second, n) << key;
  }
}

TEST(MonitorFormatTest, PrometheusExportIsValidExposition) {
  const std::string text = ExportPrometheusText(HandBuiltSnapshot());
  ValidatePrometheusText(text);
  EXPECT_NE(text.find("# TYPE tencentrec_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("tencentrec_gauge{name=\"engine.ingestion_lag\"} 5"),
            std::string::npos);
  EXPECT_NE(
      text.find("tencentrec_store_ops_total{server=\"0\",op=\"read\"} 50"),
      std::string::npos);
  EXPECT_NE(text.find("tencentrec_latency_us_count{name=\"topo.golden."
                      "user_history.event_to_store_us\"} 100"),
            std::string::npos);
}

TEST(MonitorFormatTest, SnapshotDeltaRatesAndUtilization) {
  MonitorSnapshot before = HandBuiltSnapshot();
  MonitorSnapshot after = before;
  after.wall_micros = before.wall_micros + 2000000;  // 2s later
  after.topology[1].executed += 500;
  after.topology[1].busy_micros += 1000000;  // busy half the wall time
  after.store[0].reads += 100;
  after.store[0].writes += 60;
  after.ingestion_lag = 1;

  SnapshotDelta delta = ComputeSnapshotDelta(before, after);
  EXPECT_DOUBLE_EQ(delta.wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(delta.events_per_second, 250.0);
  EXPECT_DOUBLE_EQ(delta.store_reads_per_second, 50.0);
  EXPECT_DOUBLE_EQ(delta.store_writes_per_second, 30.0);
  EXPECT_EQ(delta.lag_delta, -4);
  ASSERT_EQ(delta.utilization.size(), after.topology.size());
  EXPECT_EQ(delta.utilization[1].component, "user_history");
  EXPECT_DOUBLE_EQ(delta.utilization[1].busy_over_wall, 0.5);
  EXPECT_DOUBLE_EQ(delta.utilization[0].busy_over_wall, 0.0);

  // Identical snapshots (zero wall delta) yield no rates, not NaN — and
  // the utilization rows still come back, all zero, rather than dividing
  // busy time by a zero wall.
  SnapshotDelta zero = ComputeSnapshotDelta(before, before);
  EXPECT_DOUBLE_EQ(zero.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(zero.events_per_second, 0.0);
  EXPECT_DOUBLE_EQ(zero.store_reads_per_second, 0.0);
  EXPECT_DOUBLE_EQ(zero.store_writes_per_second, 0.0);
  ASSERT_EQ(zero.utilization.size(), before.topology.size());
  for (const auto& u : zero.utilization) {
    EXPECT_DOUBLE_EQ(u.busy_over_wall, 0.0);
  }

  // Busy time accrued in the same instant must not divide by zero either.
  MonitorSnapshot same_instant = after;
  same_instant.wall_micros = before.wall_micros;
  SnapshotDelta burst = ComputeSnapshotDelta(before, same_instant);
  EXPECT_DOUBLE_EQ(burst.wall_seconds, 0.0);
  for (const auto& u : burst.utilization) {
    EXPECT_DOUBLE_EQ(u.busy_over_wall, 0.0);
  }
}

// --- end-to-end: seeded engine run ------------------------------------------

TEST(MonitorEngineTest, SeededRunExportsLatencies) {
  SetMetricsEnabled(true);
  MetricRegistry::Default().Reset();

  TencentRec::Options options;
  options.app.app = "monapp";
  options.app.parallelism = 2;
  options.app.linked_time = Days(30);
  options.app.combiner_interval = 8;
  options.store.num_data_servers = 2;
  options.store.num_instances = 8;
  options.materialize_results = true;
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  ASSERT_TRUE((*engine)->PublishActions(SeededTraffic()).ok());
  ASSERT_TRUE((*engine)->ProcessFromAccess().ok());

  auto snapshot = CollectMonitorSnapshot(engine->get());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_GT(snapshot->wall_micros, 0u);
  EXPECT_EQ(snapshot->app, "monapp");

  // The instrumented hot paths all produced samples: event-to-store on the
  // topology components, per-op tdstore latency, consumer staleness.
  const auto* uh = snapshot->ComponentLatency("user_history");
  ASSERT_NE(uh, nullptr);
  EXPECT_GT(uh->count, 0u);
  EXPECT_GE(uh->Percentile(0.99), uh->Percentile(0.50));
  const auto* rs = snapshot->ComponentLatency("result_storage");
  ASSERT_NE(rs, nullptr);
  EXPECT_GT(rs->count, 0u);
  const auto* reads = snapshot->FindLatency("tdstore.client.read_us");
  ASSERT_NE(reads, nullptr);
  EXPECT_GT(reads->hist.count, 0u);

  // A direct ProcessBatch runs the same topology, so its store writes land
  // in the same per-component histograms on top of the first run's.
  ASSERT_TRUE((*engine)->ProcessBatch(SeededTraffic()).ok());
  auto snapshot2 = CollectMonitorSnapshot(engine->get());
  ASSERT_TRUE(snapshot2.ok());
  const auto* uh2 = snapshot2->ComponentLatency("user_history");
  ASSERT_NE(uh2, nullptr);
  EXPECT_GT(uh2->count, uh->count);

  // Exports of the live snapshot are well-formed.
  ValidatePrometheusText(ExportPrometheusText(*snapshot2));
  const std::string report = FormatMonitorSnapshot(*snapshot2);
  EXPECT_NE(report.find("== latency (us) =="), std::string::npos);
  EXPECT_NE(report.find("event_to_store_us"), std::string::npos);

  // Rates between the two snapshots are finite and non-negative.
  SnapshotDelta delta = ComputeSnapshotDelta(*snapshot, *snapshot2);
  EXPECT_GT(delta.wall_seconds, 0.0);
  EXPECT_GE(delta.events_per_second, 0.0);
}

}  // namespace
}  // namespace tencentrec::engine
