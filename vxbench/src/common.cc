#include <algorithm>
#include <cmath>
#include <sstream>

#include "exec/parallel.h"

#include "workloads.h"

namespace vxbench {

using vertexica::RunResult;
using vertexica::RunStats;
using vertexica::SuperstepStats;

namespace {

double BackendMetric(const RunResult& result, const std::string& key) {
  const auto it = result.backend_metrics.find(key);
  return it == result.backend_metrics.end() ? 0.0 : it->second;
}

/// Attaches the per-layer counters of one Engine run to `span` (phase sums,
/// counts, storage footprint, exec kernel counters, API overhead =
/// `wall_seconds` minus RunStats::total_seconds) and lays out its
/// superstep spans from `start`.
void AttachRunCounters(Tracer* tracer, int64_t span, const RunResult& result,
                       double start, double wall_seconds) {
  if (span == 0) return;
  const RunStats& stats = result.stats;
  tracer->Attr(span, "backend", result.backend);
  tracer->Attr(span, "algorithm", result.algorithm);
  tracer->Counter(span, "api.run_overhead_ms",
                  (wall_seconds - stats.total_seconds) * 1e3);
  if (result.backend == vertexica::kSqlGraphBackendId) {
    tracer->Counter(span, "sqlgraph.hash_joins", BackendMetric(result, "hash_joins"));
    tracer->Counter(span, "sqlgraph.batch_hash_rows",
                    BackendMetric(result, "batch_hash_rows"));
    tracer->Counter(span, "sqlgraph.bytes_materialized",
                    BackendMetric(result, "bytes_materialized"));
    return;
  }
  double input = 0, worker = 0, split = 0, apply = 0;
  double rows = 0, encoded = 0, decoded = 0;
  std::vector<double> sparse;
  for (const SuperstepStats& step : stats.supersteps) {
    input += step.input_seconds;
    worker += step.worker_seconds;
    split += step.split_seconds;
    apply += step.apply_seconds;
    rows += static_cast<double>(step.input_rows);
    encoded += static_cast<double>(step.encoded_bytes);
    decoded += static_cast<double>(step.decoded_bytes);
    if (step.used_frontier) sparse.push_back(step.seconds);
  }
  const double steps = stats.num_supersteps();
  tracer->Counter(span, "vertexica.input_s", input);
  tracer->Counter(span, "vertexica.worker_s", worker);
  tracer->Counter(span, "vertexica.split_s", split);
  tracer->Counter(span, "vertexica.apply_s", apply);
  tracer->Counter(span, "vertexica.supersteps", steps);
  tracer->Counter(span, "vertexica.input_rows", rows);
  tracer->Counter(span, "vertexica.messages",
                  static_cast<double>(stats.total_messages));
  tracer->Counter(span, "vertexica.frontier_ratio",
                  steps > 0 ? static_cast<double>(stats.frontier_supersteps) /
                                  steps
                            : 0.0);
  tracer->Counter(span, "vertexica.sparse_step_ms", Median(sparse) * 1e3);
  tracer->Counter(span, "storage.encoded_bytes", encoded);
  tracer->Counter(span, "storage.decoded_bytes", decoded);
  tracer->Counter(span, "storage.encode_ratio",
                  decoded > 0 ? encoded / decoded : 0.0);
  const double fused = BackendMetric(result, "fused_batches");
  const double legacy = BackendMetric(result, "legacy_batches");
  tracer->Counter(span, "exec.bytes_materialized",
                  BackendMetric(result, "bytes_materialized"));
  tracer->Counter(span, "exec.fused_ratio",
                  fused + legacy > 0 ? fused / (fused + legacy) : 0.0);
  LayOutSupersteps(tracer, span, stats, start);
}

/// The run's deterministic counts as one string, so repetitions of one
/// request can be compared.
std::string CountFingerprint(const RunResult& result) {
  std::ostringstream out;
  out << result.backend << "/" << result.algorithm << " steps "
      << result.stats.num_supersteps() << " msgs "
      << result.stats.total_messages << " frontier "
      << result.stats.frontier_supersteps;
  for (const SuperstepStats& step : result.stats.supersteps) {
    out << " " << step.input_rows << ":" << step.messages_sent << ":"
        << step.encoded_bytes << ":" << step.decoded_bytes;
  }
  for (const char* key : {"bytes_materialized", "fused_batches",
                          "legacy_batches", "batch_hash_rows", "hash_joins",
                          "merge_joins"}) {
    out << " " << key << "=" << BackendMetric(result, key);
  }
  return out.str();
}

}  // namespace

std::unique_ptr<vertexica::Engine> SetUpEngine(
    Report* report, int64_t root, std::shared_ptr<const vertexica::Graph> graph,
    const std::vector<std::string>& backends, int repeats) {
  Tracer* tracer = report->tracer();
  vertexica::ScopedExecThreads threads(report->config().threads);
  std::unique_ptr<vertexica::Engine> engine;
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    engine = std::make_unique<vertexica::Engine>();
    Span setup(tracer, "setup", root);
    const Clock::time_point start = Clock::now();
    {
      Span load(tracer, "api.load", setup.id());
      report->Check(engine->LoadGraph(graph).ok(), "LoadGraph");
    }
    for (const std::string& backend : backends) {
      Span prepare(tracer, "api.prepare", setup.id());
      prepare.Attr("backend", backend);
      const vertexica::Status st = engine->PrepareBackend(backend);
      report->Check(st.ok(), "PrepareBackend " + backend + ": " +
                                 st.ToString());
    }
    samples.push_back(SecondsSince(start));
  }
  report->MedianMetric("setup_s", samples, 1.0, "s");
  return engine;
}

TimedRun RunTimed(Report* report, vertexica::Engine* engine,
                  const vertexica::RunRequest& request, int64_t parent,
                  bool layer_counters) {
  Tracer* tracer = report->tracer();
  TimedRun run;
  Span span(tracer, "api.run", parent);
  const double start = tracer->Now();
  const Clock::time_point t0 = Clock::now();
  auto result = engine->Run(request);
  run.seconds = SecondsSince(t0);
  run.ok = result.ok();
  if (!run.ok) {
    report->Check(false, request.backend + "/" + request.algorithm + ": " +
                             result.status().ToString());
    return run;
  }
  run.result = std::move(result).MoveValueUnsafe();
  if (layer_counters) {
    AttachRunCounters(tracer, span.id(), run.result, start, run.seconds);
  } else {
    LayOutSupersteps(tracer, span.id(), run.result.stats, start);
  }
  return run;
}

void CountLedger::Check(Report* report, const std::string& key,
                        const vertexica::RunResult& result) {
  const std::string print = CountFingerprint(result);
  const auto [it, inserted] = first_.emplace(key, print);
  report->Check(inserted || it->second == print,
                key + ": counts drifted between repetitions");
}

void LayOutSupersteps(Tracer* tracer, int64_t parent, const RunStats& stats,
                      double start) {
  double t = start;
  for (const SuperstepStats& step : stats.supersteps) {
    const int64_t id = tracer->Add("vertexica.superstep", parent, t,
                                   t + step.seconds);
    if (id == 0) return;
    tracer->Counter(id, "superstep", step.superstep);
    tracer->Counter(id, "frontier", step.used_frontier ? 1 : 0);
    double phase = t;
    const std::pair<const char*, double> phases[] = {
        {"vertexica.input", step.input_seconds},
        {"vertexica.worker", step.worker_seconds},
        {"vertexica.split", step.split_seconds},
        {"vertexica.apply", step.apply_seconds}};
    for (const auto& [name, seconds] : phases) {
      tracer->Add(name, id, phase, phase + seconds);
      phase += seconds;
    }
    t += step.seconds;
  }
}

bool ValuesExact(const std::vector<double>& got,
                 const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    // Bitwise equality, with +inf == +inf for unreachable vertices.
    if (!(got[i] == want[i])) return false;
  }
  return true;
}

bool ValuesClose(const std::vector<double>& got,
                 const std::vector<double>& want, double rel_tol) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= rel_tol * std::fabs(want[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace vxbench
