/// \file serve_mix.cc
/// \brief serve-mix: one EngineServer under an open-loop request stream.
///
/// Arrivals follow a seeded Poisson schedule at a fixed rate (kRate, fixed
/// once against the closed-loop capacity CalibrateServeMix measures; never
/// re-derived per run, so a faster engine cannot raise its own offered
/// load). Up to nproc sender threads take the next arrival, wait until it is
/// due, and send it. Every kUpdateEvery-th arrival is a write: UpdateGraph
/// with seeded extra edges, then PrepareGraph. Latency runs from the due
/// time, so a stall also charges the requests queued behind it.
///
/// After the window every read is compared bit for bit with the same request
/// run serially on an Engine holding the graph version the server reported
/// (`server_graph_version`).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "common/random.h"
#include "exec/parallel.h"
#include "graphgen/datasets.h"
#include "graphgen/generators.h"
#include "server/engine_server.h"
#include "workloads.h"

namespace vxbench {

using namespace vertexica;

namespace {

/// Offered load, requests per second: half the closed-loop capacity
/// CalibrateServeMix measured for this mix on a 4-core machine (28 req/s),
/// so that queueing shows without letting host noise swamp it.
constexpr double kRate = 14.0;
/// Every kUpdateEvery-th arrival is a write.
constexpr int kUpdateEvery = 40;
/// A request slower than this (from its due time) misses the goodput.
constexpr double kLatencyLimitMs = 500.0;
/// Extra edges per written version, as a share of the base graph's edges.
constexpr double kUpdateEdgeShare = 0.01;

constexpr char kGraphName[] = "twitter";

/// The read mix: vertexica PageRank (5 iterations), SSSP and connected
/// components, sqlgraph PageRank and SSSP. Each request runs on one thread.
std::vector<RunRequest> ReadMix() {
  std::vector<RunRequest> mix;
  auto add = [&](const char* backend, const char* algorithm) {
    RunRequest r;
    r.backend = backend;
    r.algorithm = algorithm;
    r.iterations = 5;
    r.source = 0;
    r.threads = 1;
    mix.push_back(r);
  };
  add(kVertexicaBackendId, kPageRank);
  add(kVertexicaBackendId, kSssp);
  add(kVertexicaBackendId, kConnectedComponents);
  add(kSqlGraphBackendId, kPageRank);
  add(kSqlGraphBackendId, kSssp);
  return mix;
}

Graph BaseGraph(const Config& config) {
  // Twitter-shaped (~22 edges per vertex) at 5% of the paper's size.
  const double scale = config.tiny ? 0.005 : 0.05;
  const DatasetDims twitter = DatasetDimensions(DatasetId::kTwitter);
  Graph g = GenerateRmat(static_cast<int64_t>(twitter.num_vertices * scale),
                         static_cast<int64_t>(twitter.num_edges * scale),
                         config.seed);
  AssignRandomWeights(&g, 1.0, 10.0, config.seed + 1);
  return g;
}

/// Written version `k` (k >= 1): the base graph plus its own seeded extra
/// edges (versions do not accumulate, so sizes stay comparable).
Graph UpdatedGraph(const Graph& base, uint64_t seed, int k) {
  Graph g = base;
  Rng rng(seed * 1000003 + static_cast<uint64_t>(k));
  const auto extra =
      static_cast<int64_t>(static_cast<double>(base.num_edges()) *
                           kUpdateEdgeShare);
  const auto n = static_cast<uint64_t>(base.num_vertices);
  for (int64_t e = 0; e < extra; ++e) {
    g.AddEdge(static_cast<int64_t>(rng.Uniform(n)),
              static_cast<int64_t>(rng.Uniform(n)),
              1.0 + 9.0 * rng.NextDouble());
  }
  return g;
}

/// One arrival of the open-loop schedule and what became of it.
struct Arrival {
  double due = 0;       ///< seconds after the schedule's start
  int kind = -1;        ///< index into ReadMix(), or -1 for a write
  double sent = 0;      ///< when a sender picked it up
  double done = 0;
  bool ok = false;      ///< the call returned OK (reads: checked later)
  uint64_t version = 0; ///< graph version the read ran on
  std::vector<double> values;
  double queue_s = 0, run_s = 0, engine_s = 0;
  double install_s = 0, update_s = 0;
  RunStats stats;
};

double Ms(double seconds) { return seconds * 1e3; }

}  // namespace

void RunServeMix(Report* report) {
  const Config& config = report->config();
  Tracer* tracer = report->tracer();
  const auto base = std::make_shared<const Graph>(BaseGraph(config));
  const std::vector<RunRequest> mix = ReadMix();
  report->Input("vertices", static_cast<double>(base->num_vertices));
  report->Input("edges", static_cast<double>(base->num_edges()));
  report->Input("rate_per_s", kRate);
  report->Input("update_every", kUpdateEvery);
  report->Input("latency_limit_ms", kLatencyLimitMs);
  // Up to nproc requests in flight, each on one thread.
  const int senders =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  report->Input("senders", senders);

  Span root(tracer, "workload.serve-mix", 0);
  const std::vector<std::string> backends = {kVertexicaBackendId,
                                             kSqlGraphBackendId};
  EngineServer server;
  // Set-up: install + prepare, 15 times on fresh names (it takes tens of
  // milliseconds, so one sample is noisy); the last stays.
  {
    ScopedExecThreads threads(1);  // as the requests run
    std::vector<double> samples;
    for (int i = 0; i < 15; ++i) {
      const std::string name = i < 14 ? "setup" + std::to_string(i)
                                     : std::string(kGraphName);
      Span setup(tracer, "setup", root.id());
      const Clock::time_point start = Clock::now();
      {
        Span install(tracer, "server.install", setup.id());
        report->Check(server.CreateGraph(name, base).ok(), "CreateGraph");
      }
      for (const std::string& backend : backends) {
        Span prepare(tracer, "api.prepare", setup.id());
        prepare.Attr("backend", backend);
        report->Check(server.PrepareGraph(name, backend).ok(),
                      "PrepareGraph " + backend);
      }
      samples.push_back(SecondsSince(start));
      if (i < 14) report->Check(server.DropGraph(name).ok(), "DropGraph");
    }
    report->MedianMetric("setup_s", samples, 1.0, "s");
  }
  // Warm-up: each read once.
  for (const RunRequest& request : mix) {
    report->Check(server.Run(kGraphName, request).ok(),
                  "warm-up " + request.backend + "/" + request.algorithm);
  }

  // The schedule: seeded Poisson arrivals over the window.
  Rng rng(config.seed + 7);
  std::vector<Arrival> arrivals;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / kRate;
    if (t >= config.seconds) break;
    Arrival a;
    a.due = t;
    // Reads cycle through the mix so every run has the same composition;
    // only the arrival times are random.
    const size_t n = arrivals.size() + 1;
    a.kind = n % kUpdateEvery == 0
                 ? -1
                 : static_cast<int>((n - n / kUpdateEvery) % mix.size());
    arrivals.push_back(std::move(a));
  }

  std::map<uint64_t, int> version_to_write;  // server version -> k
  version_to_write[1] = 0;
  std::mutex write_mutex;  // one writer at a time, like an ingest path
  int writes = 0;
  std::atomic<size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto since_t0 = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  auto sender = [&] {
    for (size_t i; (i = next.fetch_add(1)) < arrivals.size();) {
      Arrival& a = arrivals[i];
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(a.due)));
      a.sent = since_t0(Clock::now());
      if (a.kind < 0) {
        std::lock_guard<std::mutex> lock(write_mutex);
        const int k = ++writes;
        auto graph = std::make_shared<const Graph>(
            UpdatedGraph(*base, config.seed, k));
        const Clock::time_point start = Clock::now();
        a.ok = server.UpdateGraph(kGraphName, graph).ok();
        a.install_s = SecondsSince(start);
        for (const std::string& backend : backends) {
          a.ok = a.ok && server.PrepareGraph(kGraphName, backend).ok();
        }
        a.update_s = SecondsSince(start);
        auto version = server.GraphVersion(kGraphName);
        a.ok = a.ok && version.ok();
        if (a.ok) version_to_write[*version] = k;
      } else {
        auto result = server.Run(kGraphName, mix[static_cast<size_t>(a.kind)]);
        a.ok = result.ok();
        if (a.ok) {
          auto& m = result->backend_metrics;
          a.version = static_cast<uint64_t>(m["server_graph_version"]);
          a.queue_s = m["server_queue_seconds"];
          a.run_s = m["server_run_seconds"];
          a.engine_s = result->stats.total_seconds;
          a.values = std::move(result->values);
          a.stats = std::move(result->stats);
        }
      }
      a.done = since_t0(Clock::now());
    }
  };
  {
    std::vector<std::thread> threads;
    for (int s = 0; s < senders; ++s) threads.emplace_back(sender);
    for (std::thread& t : threads) t.join();
  }

  // Checks, outside the window: each read against a serial run of the same
  // request on the same graph version.
  std::map<std::pair<uint64_t, int>, std::vector<double>> serial;
  for (const Arrival& a : arrivals) {
    if (a.kind < 0 || !a.ok) continue;
    serial.emplace(std::make_pair(a.version, a.kind), std::vector<double>());
  }
  {
    Engine engine;
    uint64_t loaded = 0;
    for (auto& [key, values] : serial) {
      if (key.first != loaded) {
        const auto it = version_to_write.find(key.first);
        if (it == version_to_write.end()) continue;  // counted below
        report->Check(
            engine.LoadGraph(it->second == 0
                                 ? *base
                                 : UpdatedGraph(*base, config.seed,
                                                it->second))
                .ok(),
            "serial LoadGraph");
        loaded = key.first;
      }
      auto result = engine.Run(mix[static_cast<size_t>(key.second)]);
      if (result.ok()) values = std::move(result->values);
    }
  }
  std::vector<double> latency_ms;
  std::vector<double> update_s;
  int64_t good = 0;
  double last_done = 0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    bool ok = a.ok;
    if (a.kind >= 0) {
      const auto it = serial.find({a.version, a.kind});
      ok = ok && it != serial.end() && !it->second.empty() &&
           ValuesExact(a.values, it->second);
      const RunRequest& r = mix[static_cast<size_t>(a.kind)];
      report->Check(ok, "served " + r.backend + "/" + r.algorithm +
                            " != serial run on version " +
                            std::to_string(a.version));
      latency_ms.push_back(Ms(a.done - a.due));
    } else {
      report->Check(ok, "UpdateGraph + PrepareGraph");
      update_s.push_back(a.update_s);
    }
    if (ok && Ms(a.done - a.due) <= kLatencyLimitMs) ++good;
    last_done = std::max(last_done, a.done);
  }
  report->Metric("serve_p50_ms", Quantile(latency_ms, 0.5), "ms",
                 static_cast<int64_t>(latency_ms.size()));
  report->Metric("serve_p90_ms", Quantile(latency_ms, 0.9), "ms",
                 static_cast<int64_t>(latency_ms.size()));
  const double span_s = last_done - (arrivals.empty() ? 0 : arrivals[0].due);
  report->Metric("serve_goodput_rps",
                 span_s > 0 ? static_cast<double>(good) / span_s : 0.0,
                 "req/s", static_cast<int64_t>(arrivals.size()));
  report->MedianMetric("update_s", update_s, 1.0, "s");

  // Spans, laid out from the recorded times (requests ran concurrently, so
  // they are recorded after the fact, each with its own request id).
  if (tracer->enabled()) {
    const double base_t = tracer->ToTraceTime(t0);
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      const auto id = static_cast<int64_t>(i) + 1;
      const int64_t span =
          tracer->Add(a.kind < 0 ? "server.update" : "server.request",
                      root.id(), base_t + a.due, base_t + a.done, id);
      tracer->Counter(span, "gen.late_ms", Ms(a.sent - a.due));
      const double sent = base_t + a.sent;
      if (a.kind < 0) {
        tracer->Counter(span, "server.install_s", a.install_s);
        tracer->Add("server.install", span, sent, sent + a.install_s, id);
        tracer->Add("api.prepare", span, sent + a.install_s,
                    sent + a.update_s, id);
        continue;
      }
      const RunRequest& r = mix[static_cast<size_t>(a.kind)];
      tracer->Attr(span, "backend", r.backend);
      tracer->Attr(span, "algorithm", r.algorithm);
      tracer->Counter(span, "server.queue_wait_ms", Ms(a.queue_s));
      tracer->Counter(span, "server.run_ms", Ms(a.run_s));
      tracer->Counter(span, "api.run_overhead_ms", Ms(a.run_s - a.engine_s));
      const int64_t call = tracer->Add("server.run", span, sent,
                                       base_t + a.done, id);
      tracer->Add("server.queue", call, sent, sent + a.queue_s, id);
      const int64_t engine = tracer->Add("api.run", call, sent + a.queue_s,
                                         sent + a.queue_s + a.run_s, id);
      LayOutSupersteps(tracer, engine, a.stats, sent + a.queue_s);
    }
    const AdmissionController::Stats admission = server.admission_stats();
    const double now = tracer->Now();
    const int64_t stats = tracer->Add("server.stats", root.id(), now, now);
    tracer->Counter(stats, "server.queued_frac",
                    admission.admitted > 0
                        ? static_cast<double>(admission.queued) /
                              static_cast<double>(admission.admitted)
                        : 0.0);
    tracer->Counter(stats, "server.retries",
                    static_cast<double>(server.retry_count()));
  }
}

void CalibrateServeMix(Report* report) {
  const Config& config = report->config();
  EngineServer server;
  report->Check(server.CreateGraph(kGraphName, BaseGraph(config)).ok(),
                "CreateGraph");
  const std::vector<RunRequest> mix = ReadMix();
  for (const RunRequest& request : mix) {
    report->Check(server.Run(kGraphName, request).ok(), "warm-up");
  }
  // Closed loop: each client sends its next read when the previous returns.
  std::atomic<int64_t> completed{0};
  const Clock::time_point start = Clock::now();
  auto client = [&](int c) {
    Rng rng(config.seed + static_cast<uint64_t>(c));
    while (SecondsSince(start) < config.seconds) {
      if (server.Run(kGraphName, mix[rng.Uniform(mix.size())]).ok()) {
        completed.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> clients;
  const auto n = static_cast<int>(std::thread::hardware_concurrency());
  for (int c = 0; c < std::max(1, n); ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  report->Metric("closed_loop_rps",
                 static_cast<double>(completed.load()) / SecondsSince(start),
                 "req/s", completed.load());
}

}  // namespace vxbench
