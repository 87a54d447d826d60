// The ops plane end to end: health registry, embedded admin HTTP server
// (exercised over real loopback sockets), the stall watchdog, and the
// engine-level acceptance paths — sampled traces reaching /traces, and a
// synthetic stalled component flipping /healthz to degraded.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "engine/monitor.h"
#include "engine/tencentrec.h"
#include "obs/admin_server.h"
#include "obs/freshness.h"
#include "obs/health.h"

namespace tencentrec {
namespace {

using engine::StallWatchdog;
using obs::AdminServer;
using obs::HealthRegistry;

/// One blocking HTTP GET against 127.0.0.1:port; returns the full raw
/// response ("" on connect failure).
std::string HttpGet(int port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
  ssize_t ignored = ::write(fd, req.data(), req.size());
  (void)ignored;
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  ::close(fd);
  return out;
}

/// Sends raw bytes and returns the response (malformed-request tests).
std::string HttpRaw(int port, const std::string& raw) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  ssize_t ignored = ::write(fd, raw.data(), raw.size());
  (void)ignored;
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  ::close(fd);
  return out;
}

// --- HealthRegistry ---------------------------------------------------------

TEST(HealthRegistryTest, EmptyRegistryIsHealthyButNotReady) {
  HealthRegistry health;
  EXPECT_TRUE(health.Healthy());
  EXPECT_FALSE(health.Ready());
  health.SetReady(true);
  EXPECT_TRUE(health.Ready());
}

TEST(HealthRegistryTest, UnhealthyComponentDegradesAndRecovers) {
  HealthRegistry health;
  health.Set("bolt-a", true);
  health.Set("bolt-b", false, "no progress, backlog 7");
  EXPECT_FALSE(health.Healthy());
  const auto entries = health.Entries();
  ASSERT_EQ(entries.size(), 2u);

  const std::string json = health.Json();
  EXPECT_NE(json.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("bolt-b"), std::string::npos);
  EXPECT_NE(json.find("no progress, backlog 7"), std::string::npos);

  health.Set("bolt-b", true);
  EXPECT_TRUE(health.Healthy());
  EXPECT_NE(health.Json().find("\"status\":\"ok\""), std::string::npos);

  health.Clear("bolt-b");
  EXPECT_EQ(health.Entries().size(), 1u);
}

TEST(HealthRegistryTest, JsonEscapesReasons) {
  HealthRegistry health;
  health.Set("c", false, "quote \" backslash \\ newline \n");
  const std::string json = health.Json();
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

// --- AdminServer ------------------------------------------------------------

TEST(AdminServerTest, ServesRoutesOnEphemeralPort) {
  AdminServer server(AdminServer::Options{});
  server.Route("/ping", [](const AdminServer::Request&) {
    AdminServer::Response resp;
    resp.body = "pong";
    return resp;
  });
  server.Route("/echo", [](const AdminServer::Request& req) {
    AdminServer::Response resp;
    resp.body = req.method + " " + req.path + " q=" + req.query;
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  const std::string ping = HttpGet(server.port(), "/ping");
  EXPECT_NE(ping.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(ping.find("pong"), std::string::npos);
  EXPECT_NE(ping.find("Content-Length: 4"), std::string::npos);
  EXPECT_NE(ping.find("Connection: close"), std::string::npos);

  const std::string echo = HttpGet(server.port(), "/echo?format=chrome");
  EXPECT_NE(echo.find("GET /echo q=format=chrome"), std::string::npos);

  EXPECT_NE(HttpGet(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(HttpRaw(server.port(), "garbage\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);

  EXPECT_GE(server.requests_served(), 4u);
  server.Stop();
  server.Stop();  // idempotent
}

TEST(AdminServerTest, StatusCodesPassThrough) {
  AdminServer server(AdminServer::Options{});
  server.Route("/unhealthy", [](const AdminServer::Request&) {
    AdminServer::Response resp;
    resp.status = 503;
    resp.body = "degraded";
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(HttpGet(server.port(), "/unhealthy").find("HTTP/1.1 503"),
            std::string::npos);
  server.Stop();
}

// --- StallWatchdog ----------------------------------------------------------

TEST(StallWatchdogTest, DetectsStallAndRecovery) {
  HealthRegistry health;
  StallWatchdog::Options opts;
  opts.health = &health;
  StallWatchdog dog(opts);

  std::atomic<uint64_t> progress{0};
  std::atomic<uint64_t> backlog{0};
  dog.Register({"stage",
                [&] { return progress.load(); },
                [&] { return backlog.load(); }});

  dog.CheckNow();  // seeds the baseline
  EXPECT_TRUE(dog.StalledComponents().empty());

  // Progress flowing: healthy regardless of backlog.
  progress = 5;
  backlog = 3;
  dog.CheckNow();
  EXPECT_TRUE(dog.StalledComponents().empty());
  EXPECT_TRUE(health.Healthy());

  // No progress + backlog = stalled; /healthz input flips.
  dog.CheckNow();
  ASSERT_EQ(dog.StalledComponents(), std::vector<std::string>{"stage"});
  EXPECT_FALSE(health.Healthy());

  // Backlog draining without progress is NOT recovery.
  backlog = 0;
  dog.CheckNow();
  EXPECT_FALSE(health.Healthy());

  // Forward motion clears the flag.
  progress = 6;
  dog.CheckNow();
  EXPECT_TRUE(dog.StalledComponents().empty());
  EXPECT_TRUE(health.Healthy());
}

TEST(StallWatchdogTest, IdleWithoutBacklogNeverStalls) {
  StallWatchdog dog(StallWatchdog::Options{});
  std::atomic<uint64_t> progress{10};
  dog.Register({"idle",
                [&] { return progress.load(); },
                [] { return uint64_t{0}; }});
  for (int i = 0; i < 5; ++i) dog.CheckNow();
  EXPECT_TRUE(dog.StalledComponents().empty());
}

TEST(StallWatchdogTest, BackgroundThreadFlagsWithinOnePeriod) {
  HealthRegistry health;
  StallWatchdog::Options opts;
  opts.period_ms = 20;
  opts.health = &health;
  StallWatchdog dog(opts);
  std::atomic<uint64_t> backlog{4};
  dog.Register({"wedged",
                [] { return uint64_t{7}; },  // never advances
                [&] { return backlog.load(); }});
  dog.Start();
  // Seed sweep + detect sweep: two periods, generously bounded.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (health.Healthy() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(health.Healthy());
  EXPECT_GE(dog.sweeps(), 2u);
  dog.Stop();
}

TEST(StallWatchdogTest, UnregisterClearsHealthEntry) {
  HealthRegistry health;
  StallWatchdog::Options opts;
  opts.health = &health;
  StallWatchdog dog(opts);
  std::atomic<uint64_t> backlog{1};
  const int64_t id = dog.Register({"gone",
                                   [] { return uint64_t{1}; },
                                   [&] { return backlog.load(); }});
  dog.CheckNow();
  dog.CheckNow();
  EXPECT_FALSE(health.Healthy());
  dog.Unregister(id);
  EXPECT_TRUE(health.Healthy());
  EXPECT_TRUE(dog.StalledComponents().empty());
}

// --- engine acceptance ------------------------------------------------------

engine::TencentRec::Options OpsEngineOptions() {
  engine::TencentRec::Options options;
  options.app.app = "obstest";
  options.app.parallelism = 2;
  options.store.num_data_servers = 2;
  options.store.num_instances = 4;
  return options;
}

std::vector<core::UserAction> MakeActions(int n) {
  std::vector<core::UserAction> actions;
  actions.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::UserAction a;
    a.user = 1 + (i % 16);
    a.item = 1 + (i % 40);
    a.action = (i % 3 == 0) ? core::ActionType::kPurchase
                            : core::ActionType::kClick;
    a.timestamp = Seconds(i);
    actions.push_back(a);
  }
  return actions;
}

/// Acceptance: with sampling 1/64 on a seeded engine run, /traces returns
/// at least one complete multi-span trace reaching from the spout to a
/// store write, and ?format=chrome yields a trace_event JSON array.
TEST(EngineOpsTest, SampledTracesReachTheAdminPlane) {
  SetMetricsEnabled(true);
  Tracer::Default().Clear();
  auto options = OpsEngineOptions();
  options.trace_sample_every = 64;
  options.enable_admin_server = true;
  auto engine = engine::TencentRec::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_NE((*engine)->admin_server(), nullptr);
  const int port = (*engine)->admin_server()->port();
  ASSERT_GT(port, 0);

  ASSERT_TRUE((*engine)->ProcessBatch(MakeActions(512)).ok());

  // The spout stamped 1-in-64 of 512 actions; every hop recorded spans.
  EXPECT_GT(Tracer::Default().total_recorded(), 0u);

  const std::string traces = HttpGet(port, "/traces");
  EXPECT_NE(traces.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(traces.find("\"spout\""), std::string::npos)
      << traces.substr(0, 2000);
  EXPECT_NE(traces.find("\"tdstore.write\""), std::string::npos);
  // Multi-span traces exist: some trace groups at least two spans, which
  // the grouped export renders as adjacent span objects.
  EXPECT_NE(traces.find("},{\"name\""), std::string::npos);

  const std::string chrome = HttpGet(port, "/traces?format=chrome");
  const size_t body_at = chrome.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = chrome.substr(body_at + 4);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '[');
  EXPECT_EQ(body.back(), ']');
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ts\":"), std::string::npos);
  EXPECT_NE(body.find("\"dur\":"), std::string::npos);

  // The rest of the plane answers too.
  EXPECT_NE(HttpGet(port, "/metrics").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "/vars").find("\"app\""), std::string::npos);
  EXPECT_NE(HttpGet(port, "/healthz").find("\"status\":\"ok\""),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "/readyz").find("\"ready\":true"),
            std::string::npos);

  SetTraceSampleEvery(0);
  Tracer::Default().Clear();
}

/// Acceptance: a synthetic stalled component drives /healthz to degraded
/// within one watchdog period.
TEST(EngineOpsTest, StalledComponentDegradesHealthz) {
  auto options = OpsEngineOptions();
  options.enable_admin_server = true;
  options.enable_watchdog = true;
  options.watchdog_period_ms = 20;
  auto engine = engine::TencentRec::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_NE((*engine)->watchdog(), nullptr);
  const int port = (*engine)->admin_server()->port();

  EXPECT_NE(HttpGet(port, "/healthz").find("HTTP/1.1 200"),
            std::string::npos);

  // A bolt that never drains its visibly non-empty queue.
  (*engine)->watchdog()->Register({"synthetic-wedge",
                                   [] { return uint64_t{3}; },
                                   [] { return uint64_t{9}; }});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((*engine)->health().Healthy() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::string resp = HttpGet(port, "/healthz");
  EXPECT_NE(resp.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(resp.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(resp.find("synthetic-wedge"), std::string::npos);
}

// --- graceful shutdown ------------------------------------------------------

TEST(AdminServerTest, StopIsPromptWithoutTraffic) {
  AdminServer server(AdminServer::Options{});
  server.Route("/ping", [](const AdminServer::Request&) {
    AdminServer::Response resp;
    resp.body = "pong";
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();
  EXPECT_NE(HttpGet(port, "/ping").find("pong"), std::string::npos);
  // No in-flight request: the self-pipe must unblock the accept loop well
  // inside the drain deadline (this used to require a dummy connect).
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  // Stopped: new connections are refused.
  EXPECT_EQ(HttpGet(port, "/ping"), "");
}

TEST(AdminServerTest, RequestStopFromAnotherThreadUnblocksServe) {
  AdminServer server(AdminServer::Options{});
  ASSERT_TRUE(server.Start().ok());
  // The async-signal-safe half on its own (as a SIGTERM handler would call
  // it), then the joining half.
  std::thread signaler([&server] { server.RequestStop(); });
  signaler.join();
  server.Stop();
  EXPECT_EQ(HttpGet(server.port(), "/"), "");
}

// --- watchdog instruments ---------------------------------------------------

/// The watchdog's recovery path, observed through its registry instruments:
/// `watchdog.stalls` counts detection edges (not sweeps), and
/// `watchdog.stalled_components` tracks the current stall count.
TEST(StallWatchdogTest, RecoveryPathDrivesStallCounterAndGauge) {
  SetMetricsEnabled(true);
  auto counter_value = [] {
    for (const auto& [name, v] : MetricRegistry::Default().Counters()) {
      if (name == "watchdog.stalls") return v;
    }
    return uint64_t{0};
  };
  auto gauge_value = [] {
    for (const auto& [name, v] : MetricRegistry::Default().Gauges()) {
      if (name == "watchdog.stalled_components") return v;
    }
    return int64_t{0};
  };
  const uint64_t base = counter_value();

  HealthRegistry health;
  StallWatchdog::Options opts;
  opts.health = &health;
  StallWatchdog dog(opts);
  std::atomic<uint64_t> progress{1};
  std::atomic<uint64_t> backlog{2};
  dog.Register({"edge",
                [&] { return progress.load(); },
                [&] { return backlog.load(); }});
  dog.CheckNow();  // seed
  dog.CheckNow();  // detect: one edge
  EXPECT_EQ(counter_value(), base + 1);
  EXPECT_EQ(gauge_value(), 1);
  dog.CheckNow();  // still stalled: no new edge
  EXPECT_EQ(counter_value(), base + 1);

  progress = 2;  // recovery
  dog.CheckNow();
  EXPECT_TRUE(health.Healthy());
  EXPECT_EQ(gauge_value(), 0);
  EXPECT_EQ(counter_value(), base + 1);

  dog.CheckNow();  // re-stall: a second edge
  EXPECT_EQ(counter_value(), base + 2);
  EXPECT_EQ(gauge_value(), 1);
}

// --- freshness / timeseries / SLO acceptance --------------------------------

/// Acceptance: a seeded run leaves per-stage watermarks behind; the derived
/// end-to-end lag matches the hand-recomputed min-over-stages value, the
/// freshness gauges ride /vars, and /timeseries serves the sampled series.
TEST(EngineOpsTest, FreshnessGaugesAndTimeseriesServed) {
  SetMetricsEnabled(true);
  MetricRegistry::Default().Reset();
  obs::FreshnessTracker::Default().Clear();
  auto options = OpsEngineOptions();
  options.enable_admin_server = true;
  options.enable_timeseries = true;
  options.timeseries_sample_period_ms = 3600 * 1000;  // manual sampling only
  auto engine = engine::TencentRec::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const int port = (*engine)->admin_server()->port();
  ASSERT_NE((*engine)->timeseries(), nullptr);

  ASSERT_TRUE((*engine)->ProcessBatch(MakeActions(256)).ok());

  // Every topology stage retired with data: per-stage watermarks are
  // nonzero, and e2e lag recomputes as now - min(stage watermark).
  const uint64_t now = MonoMicros();
  const auto lags = obs::FreshnessTracker::Default().Lags(now);
  ASSERT_GE(lags.size(), 3u);
  uint64_t min_watermark = UINT64_MAX;
  bool saw_spout = false;
  for (const auto& lag : lags) {
    EXPECT_GT(lag.watermark_micros, 0u) << lag.stage;
    min_watermark = std::min(min_watermark, lag.watermark_micros);
    saw_spout |= lag.stage == "spout";
  }
  EXPECT_TRUE(saw_spout);
  EXPECT_EQ(obs::FreshnessTracker::Default().EndToEndLag(now),
            now - min_watermark);

  // /vars carries the freshness gauges.
  const std::string vars = HttpGet(port, "/vars");
  EXPECT_NE(vars.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(vars.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(vars.find("freshness.e2e.lag_us"), std::string::npos);
  EXPECT_NE(vars.find("freshness.spout.lag_us"), std::string::npos);

  // One manual sample; the ring then serves both the listing and queries.
  (*engine)->timeseries()->SampleNow();
  const std::string listing = HttpGet(port, "/timeseries");
  EXPECT_NE(listing.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(listing.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(listing.find("freshness.e2e.lag_us"), std::string::npos);
  const std::string series =
      HttpGet(port, "/timeseries?metric=freshness.e2e.lag_us&window=600");
  EXPECT_NE(series.find("\"series\":\"freshness.e2e.lag_us\""),
            std::string::npos);
  EXPECT_NE(series.find("{\"t\":"), std::string::npos);  // >= 1 point
}

/// Acceptance: an induced stall flips the stall-free SLO to breached within
/// one evaluation (sample -> burn-rate eval -> health), and /readyz
/// reflects the breach.
TEST(EngineOpsTest, InducedStallBreachesSloAndDropsReadyz) {
  SetMetricsEnabled(true);
  MetricRegistry::Default().Reset();
  obs::FreshnessTracker::Default().Clear();
  auto options = OpsEngineOptions();
  options.enable_admin_server = true;
  options.enable_watchdog = true;
  options.enable_slo = true;
  options.timeseries_sample_period_ms = 3600 * 1000;  // manual sampling only
  // Only the stall objective is under test here.
  options.slo_freshness_lag_micros = 3600ull * 1000 * 1000;
  auto engine = engine::TencentRec::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const int port = (*engine)->admin_server()->port();
  ASSERT_NE((*engine)->slo(), nullptr);

  // Healthy baseline: sample + eval (the post-sample hook) leaves every
  // objective unbreached and the engine ready.
  (*engine)->timeseries()->SampleNow();
  EXPECT_NE(HttpGet(port, "/readyz").find("HTTP/1.1 200"),
            std::string::npos);
  const std::string before = HttpGet(port, "/slo");
  EXPECT_NE(before.find("\"name\":\"stall-free\""), std::string::npos);
  EXPECT_EQ(before.find("\"breached\":true"), std::string::npos);

  // Wedge a synthetic component, let the watchdog see it, and take ONE
  // sample: the post-sample evaluation must breach immediately.
  (*engine)->watchdog()->Register({"synthetic-wedge",
                                   [] { return uint64_t{3}; },
                                   [] { return uint64_t{9}; }});
  (*engine)->watchdog()->CheckNow();  // seed
  (*engine)->watchdog()->CheckNow();  // detect -> stalled gauge = 1
  (*engine)->timeseries()->SampleNow();

  const std::string after = HttpGet(port, "/slo");
  EXPECT_NE(after.find("\"breached\":true"), std::string::npos);
  const std::string ready = HttpGet(port, "/readyz");
  EXPECT_NE(ready.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(ready.find("\"ready\":false"), std::string::npos);
  // /healthz names the breached objective.
  EXPECT_NE(HttpGet(port, "/healthz").find("slo.stall-free"),
            std::string::npos);
}

/// Acceptance: at least one /metrics histogram bucket carries an exemplar
/// trace id that resolves to a span group on /traces.
TEST(EngineOpsTest, ExemplarTraceIdsResolveAgainstTraces) {
  SetMetricsEnabled(true);
  MetricRegistry::Default().Reset();
  Tracer::Default().Clear();
  obs::FreshnessTracker::Default().Clear();
  auto options = OpsEngineOptions();
  options.enable_admin_server = true;
  options.trace_sample_every = 16;
  auto engine = engine::TencentRec::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const int port = (*engine)->admin_server()->port();

  ASSERT_TRUE((*engine)->ProcessBatch(MakeActions(512)).ok());

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(metrics.find("# EOF"), std::string::npos);
  const size_t at = metrics.find("# {trace_id=\"");
  ASSERT_NE(at, std::string::npos) << metrics.substr(0, 1500);
  const std::string trace_id = metrics.substr(at + 13, 16);
  ASSERT_EQ(trace_id.size(), 16u);

  // The id resolves on the trace plane (ids render identically: 16 hex).
  const std::string traces = HttpGet(port, "/traces");
  EXPECT_NE(traces.find(trace_id), std::string::npos) << trace_id;

  SetTraceSampleEvery(0);
  Tracer::Default().Clear();
}

/// The watchdog covers every topology component while a run is live:
/// RunTopology registers one "topo.<component>" source per component and
/// unregisters them all before the cluster is torn down.
TEST(EngineOpsTest, WatchdogCoversTopologyComponents) {
  auto options = OpsEngineOptions();
  options.enable_watchdog = true;
  options.watchdog_period_ms = 1;  // background sweeps during the run too
  auto engine = engine::TencentRec::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  StallWatchdog* dog = (*engine)->watchdog();
  ASSERT_NE(dog, nullptr);
  EXPECT_TRUE(dog->SourceNames().empty());

  // Observe the registrations from a second thread while a batch streams,
  // sweeping once by hand as soon as they appear. A run can finish before
  // the observer is scheduled, so retry until one is caught in flight.
  const auto actions = MakeActions(4096);
  std::vector<std::string> seen;
  for (int attempt = 0; attempt < 5 && seen.empty(); ++attempt) {
    std::atomic<bool> done{false};
    std::thread observer([&] {
      bool swept = false;
      while (!done.load()) {
        for (auto& name : dog->SourceNames()) {
          if (std::find(seen.begin(), seen.end(), name) == seen.end()) {
            seen.push_back(std::move(name));
          }
        }
        if (!seen.empty() && !swept) {
          dog->CheckNow();
          swept = true;
        }
        std::this_thread::yield();
      }
    });
    const Status run = (*engine)->ProcessBatch(actions);
    done = true;
    observer.join();
    ASSERT_TRUE(run.ok()) << run.ToString();
  }
  for (const char* component :
       {"topo.spout", "topo.pretreatment", "topo.user_history",
        "topo.item_count", "topo.cf_pair", "topo.similar_list"}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), component), seen.end())
        << component;
  }
  // Every source left with its cluster; a drained run leaves nothing
  // flagged.
  EXPECT_TRUE(dog->SourceNames().empty());
  EXPECT_TRUE(dog->StalledComponents().empty());
  EXPECT_TRUE((*engine)->health().Healthy());
}

}  // namespace
}  // namespace tencentrec
