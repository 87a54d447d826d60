// Operations view (Fig. 9's Monitor and Offline Computation Platform, and
// the §7 future-work auto-parallelism): run a deployment, watch the monitor
// before/after ingestion — including per-component event-to-store latency
// percentiles (the paper's ~2s end-to-end claim, §6.2) — derive rates from
// two snapshots, export the same data for scraping (Prometheus text / JSON),
// size bolts automatically from the traffic rate, and launch an offline
// batch job over the TDAccess history.
//
//   ./operations

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>

#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "engine/monitor.h"
#include "engine/offline.h"
#include "engine/tencentrec.h"

using namespace tencentrec;
using namespace tencentrec::core;

namespace {

/// Print the first `n` lines of a multi-line export, then an ellipsis.
void PrintHead(const std::string& text, int n) {
  std::istringstream in(text);
  std::string line;
  int printed = 0;
  while (printed < n && std::getline(in, line)) {
    std::printf("%s\n", line.c_str());
    ++printed;
  }
  if (in.peek() != EOF) std::printf("...\n");
}

/// What `curl http://127.0.0.1:<port><path>` would do, inline: one GET
/// against the embedded admin server, returning the raw response.
std::string HttpGet(int port, const std::string& path) {
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
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  ::close(fd);
  return out;
}

}  // namespace

int main() {
  SetMetricsEnabled(true);  // on by default; explicit for the demo
  engine::TencentRec::Options options;
  options.app.app = "ops";
  options.app.parallelism = 0;  // automatic (§7 future work)
  options.app.linked_time = Hours(4);
  options.store.num_data_servers = 2;
  options.store.num_instances = 8;
  auto engine = engine::TencentRec::Create(options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  // A burst of traffic lands on the bus.
  Rng rng(9);
  ZipfSampler zipf(150, 0.9);
  std::vector<UserAction> actions;
  for (int i = 0; i < 5000; ++i) {
    UserAction a;
    a.user = static_cast<UserId>(1 + rng.Uniform(100));
    a.item = static_cast<ItemId>(1 + zipf.Sample(rng));
    a.action = rng.Bernoulli(0.3) ? ActionType::kPurchase
                                  : ActionType::kClick;
    a.timestamp = i * Seconds(600) / 5000;  // ~8 events/s over 10 minutes
    actions.push_back(a);
  }
  if (!(*engine)->PublishActions(actions).ok()) return 1;

  std::printf("-- monitor before processing --\n");
  auto before = engine::CollectMonitorSnapshot(engine->get());
  std::printf("%s\n", engine::FormatMonitorSnapshot(*before).c_str());

  if (!(*engine)->ProcessFromAccess().ok()) return 1;

  std::printf("-- monitor after processing --\n");
  auto after = engine::CollectMonitorSnapshot(engine->get());
  // The topology rows now carry e2s[p50/p95/p99/max] event-to-store latency
  // per component, and the latency section lists every registry histogram
  // (tdstore per-op read/write, tdaccess poll, per-bolt event-to-store).
  std::printf("%s\n", engine::FormatMonitorSnapshot(*after).c_str());

  // Two snapshots of the same engine turn cumulative totals into rates and
  // busy time into utilization.
  auto delta = engine::ComputeSnapshotDelta(*before, *after);
  std::printf("-- delta over %.3f s --\n", delta.wall_seconds);
  std::printf("events/s %.0f  store reads/s %.0f  writes/s %.0f  "
              "lag %+lld\n",
              delta.events_per_second, delta.store_reads_per_second,
              delta.store_writes_per_second,
              static_cast<long long>(delta.lag_delta));
  for (const auto& u : delta.utilization) {
    if (u.busy_over_wall > 0) {
      std::printf("  %-16s busy/wall %.3f\n", u.component.c_str(),
                  u.busy_over_wall);
    }
  }

  // The same snapshot exports as Prometheus text exposition (scrapeable)
  // and as a JSON document (dashboards, log shipping).
  std::printf("\n-- prometheus exposition (head) --\n");
  PrintHead(engine::ExportPrometheusText(*after), 18);
  std::printf("\n-- json export (head) --\n");
  const std::string json = engine::ExportJson(*after);
  std::printf("%s%s\n", json.substr(0, 400).c_str(),
              json.size() > 400 ? "..." : "");

  // The offline platform replays the same history from TDAccess's disk
  // cache and builds a batch model — e.g. for nightly evaluation against
  // the streaming state.
  engine::OfflineCfJob::Options job;
  auto model = engine::OfflineCfJob::Run((*engine)->access(), job);
  if (!model.ok()) return 1;
  std::printf("-- offline job --\nreplayed %lld actions from TDAccess "
              "history\n",
              static_cast<long long>(
                  engine::OfflineCfJob::last_actions_replayed()));

  // Cross-check one similarity between the offline build and the live
  // streaming counts.
  const EventTime now = Seconds(700);
  auto live = (*engine)->query().SimilarityFromCounts(1, 2, now);
  std::printf("sim(1,2): offline=%.4f streaming=%.4f\n",
              model->Similarity(1, 2), live.value_or(-1.0));

  // The same deployment with the ops plane on: sample 1 in 64 tuples end
  // to end, serve the snapshot / health / traces over loopback HTTP, and
  // watch every topology component for a wedged stage.
  engine::TencentRec::Options oopts = options;
  oopts.app.app = "ops-plane";
  oopts.app.parallelism = 2;
  oopts.trace_sample_every = 64;
  oopts.enable_admin_server = true;  // port 0 = ephemeral
  oopts.enable_watchdog = true;
  // The freshness/SLO plane: per-stage watermark lag gauges, a 10-minute
  // in-process metric history ring, and burn-rate objectives on /slo.
  oopts.enable_timeseries = true;
  oopts.enable_slo = true;
  auto ops = engine::TencentRec::Create(oopts);
  if (!ops.ok()) return 1;
  if (!(*ops)->ProcessBatch(actions).ok()) return 1;

  std::printf("\n-- monitor with the ops plane on --\n");
  auto osnap = engine::CollectMonitorSnapshot(ops->get());
  std::printf("%s\n", engine::FormatMonitorSnapshot(*osnap).c_str());
  auto recs = (*ops)->query().RecommendCf(1, 3, now);
  for (const auto& r : recs.value_or(core::Recommendations{})) {
    std::printf("rec for user 1: item %lld score %.4f\n",
                static_cast<long long>(r.item), r.score);
  }

  // The embedded ops plane, exactly as an operator would curl it. Force
  // one sample so /slo and /timeseries answer deterministically instead
  // of waiting out the 1 s background sampler period.
  (*ops)->timeseries()->SampleNow();
  const int port = (*ops)->admin_server()->port();
  std::printf("\n-- admin server on 127.0.0.1:%d --\n", port);
  std::printf("$ curl :%d/healthz\n", port);
  PrintHead(HttpGet(port, "/healthz"), 8);
  std::printf("$ curl :%d/metrics   (head)\n", port);
  PrintHead(HttpGet(port, "/metrics"), 12);
  std::printf("$ curl :%d/slo\n", port);
  PrintHead(HttpGet(port, "/slo"), 8);
  std::printf("$ curl ':%d/timeseries?metric=freshness.e2e.lag_us"
              "&window=300'  (head)\n",
              port);
  PrintHead(
      HttpGet(port, "/timeseries?metric=freshness.e2e.lag_us&window=300"), 8);
  std::printf("$ curl ':%d/traces'  (head)\n", port);
  // The grouped-trace body is one long JSON line; cap by characters.
  const std::string traces = HttpGet(port, "/traces");
  std::printf("%s%s\n", traces.substr(0, 600).c_str(),
              traces.size() > 600 ? "..." : "");
  // ?format=chrome returns the same spans as a Chrome trace_event array —
  // save it and load in about:tracing or https://ui.perfetto.dev.
  const std::string chrome = HttpGet(port, "/traces?format=chrome");
  std::printf("$ curl ':%d/traces?format=chrome' | wc -c  ->  %zu\n", port,
              chrome.size());
  // TR_TRACE_OUT=/path/trace.json saves the body for about:tracing /
  // Perfetto (what an operator would do with curl -o).
  if (const char* trace_out = std::getenv("TR_TRACE_OUT")) {
    const size_t body_at = chrome.find("\r\n\r\n");
    if (body_at != std::string::npos) {
      if (std::FILE* f = std::fopen(trace_out, "w")) {
        const std::string_view body =
            std::string_view(chrome).substr(body_at + 4);
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        std::printf("chrome trace saved to %s\n", trace_out);
      }
    }
  }
  std::printf("sampled spans recorded: %llu\n",
              static_cast<unsigned long long>(
                  Tracer::Default().total_recorded()));
  return 0;
}
