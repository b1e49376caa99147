/// \file pr_dense.cc
/// \brief pr-dense: PageRank on a GPlus-shaped RMAT graph (dense supersteps),
/// on vertexica and on sqlgraph, one after the other per repetition.

#include "algorithms/reference.h"
#include "graphgen/datasets.h"
#include "graphgen/generators.h"
#include "workloads.h"

namespace vxbench {

using namespace vertexica;

namespace {

/// Relative tolerance of the check against PageRankReference: the engines
/// sum contributions in another order.
constexpr double kPageRankRelTol = 1e-9;

}  // namespace

void RunPrDense(Report* report) {
  const Config& config = report->config();
  Tracer* tracer = report->tracer();
  // GPlus-shaped (average out-degree ~127) at 5% of the paper's size.
  const double scale = config.tiny ? 0.002 : 0.05;
  const DatasetDims gplus = DatasetDimensions(DatasetId::kGPlus);
  const auto vertices = static_cast<int64_t>(gplus.num_vertices * scale);
  const auto edges = static_cast<int64_t>(gplus.num_edges * scale);
  auto graph = std::make_shared<const Graph>(
      GenerateRmat(vertices, edges, config.seed));
  report->Input("vertices", static_cast<double>(graph->num_vertices));
  report->Input("edges", static_cast<double>(graph->num_edges()));
  const std::vector<double> expect = PageRankReference(*graph, 10, 0.85);

  Span root(tracer, "workload.pr-dense", 0);
  auto engine = SetUpEngine(report, root.id(), graph,
                            {kVertexicaBackendId, kSqlGraphBackendId}, 5);

  RunRequest request;
  request.algorithm = kPageRank;
  request.iterations = 10;
  request.damping = 0.85;
  request.threads = config.threads;
  std::vector<double> vertex_s;
  std::vector<double> sql_s;
  CountLedger ledger;
  // One rep runs the same query on both backends; each output is checked
  // against the reference outside the timed calls.
  auto rep = [&](int i) {
    const bool measured = i >= 0;
    Span span(tracer, "repetition", root.id(), i);
    double headline = 0;
    for (const char* backend : {kVertexicaBackendId, kSqlGraphBackendId}) {
      request.backend = backend;
      TimedRun run = RunTimed(report, engine.get(), request, span.id());
      if (!run.ok) continue;
      report->Check(ValuesClose(run.result.values, expect, kPageRankRelTol),
                    std::string(backend) + " pagerank != PageRankReference");
      if (!measured) continue;
      ledger.Check(report, backend, run.result);
      if (request.backend == kVertexicaBackendId) {
        vertex_s.push_back(run.seconds);
        headline = run.seconds;
      } else {
        sql_s.push_back(run.seconds);
      }
    }
    return headline;
  };
  RunWindow(report, root.id(), 5, rep);
  report->MedianMetric("pr_vertex_s", vertex_s, 1.0, "s");
  report->MedianMetric("pr_sql_s", sql_s, 1.0, "s");
}

}  // namespace vxbench
