/// \file sssp_tail.cc
/// \brief sssp-tail: SSSP on an RMAT core with a long chain hanging off
/// vertex 0, so thousands of supersteps touch one or two vertices each.
/// Each repetition runs SSSP from vertex 0 (core, then the whole chain) and
/// from the chain's midpoint (the chain's second half alone: nothing but
/// the fixed per-superstep cost).

#include "algorithms/reference.h"
#include "common/random.h"
#include "graphgen/generators.h"
#include "workloads.h"

namespace vxbench {

using namespace vertexica;

namespace {

/// RMAT core of `core_vertices`/`core_edges` with weights in [1, 10], plus a
/// weighted chain 0 -> c0 -> c1 -> ... of `tail` hops on new vertices.
Graph TailGraph(int64_t core_vertices, int64_t core_edges, int64_t tail,
                uint64_t seed) {
  Graph g = GenerateRmat(core_vertices, core_edges, seed);
  AssignRandomWeights(&g, 1.0, 10.0, seed + 1);
  Rng rng(seed + 2);
  int64_t prev = 0;
  for (int64_t i = 0; i < tail; ++i) {
    const int64_t next = core_vertices + i;
    g.AddEdge(prev, next, 1.0 + static_cast<double>(rng.Uniform(9)));
    prev = next;
  }
  g.num_vertices = core_vertices + tail;
  return g;
}

}  // namespace

void RunSsspTail(Report* report) {
  const Config& config = report->config();
  Tracer* tracer = report->tracer();
  const int64_t core_vertices = config.tiny ? 500 : 4000;
  const int64_t core_edges = config.tiny ? 4000 : 40000;
  const int64_t tail = config.tiny ? 100 : 2000;
  auto graph = std::make_shared<const Graph>(
      TailGraph(core_vertices, core_edges, tail, config.seed));
  report->Input("vertices", static_cast<double>(graph->num_vertices));
  report->Input("edges", static_cast<double>(graph->num_edges()));
  report->Input("tail_hops", static_cast<double>(tail));
  const std::vector<double> expect_dist = DijkstraReference(*graph, 0);
  const int64_t mid = core_vertices + tail / 2;
  const std::vector<double> expect_mid = DijkstraReference(*graph, mid);

  Span root(tracer, "workload.sssp-tail", 0);
  auto engine =
      SetUpEngine(report, root.id(), graph, {kVertexicaBackendId}, 15);

  RunRequest sssp;
  sssp.algorithm = kSssp;
  sssp.backend = kVertexicaBackendId;
  sssp.source = 0;
  sssp.threads = config.threads;
  // Above the tail length plus the core's depth; the checks below catch a
  // run cut short.
  sssp.vertexica.max_supersteps = static_cast<int>(2 * tail + 500);
  RunRequest chain = sssp;
  chain.source = mid;

  std::vector<double> sssp_s;
  std::vector<double> chain_s;
  CountLedger ledger;
  auto rep = [&](int i) {
    const bool measured = i >= 0;
    Span span(tracer, "repetition", root.id(), i);
    double headline = 0;
    TimedRun run = RunTimed(report, engine.get(), sssp, span.id());
    if (run.ok) {
      report->Check(ValuesExact(run.result.values, expect_dist),
                    "sssp != DijkstraReference");
      if (measured) {
        ledger.Check(report, "sssp", run.result);
        sssp_s.push_back(run.seconds);
        headline = run.seconds;
      }
    }
    run = RunTimed(report, engine.get(), chain, span.id(), false);
    if (run.ok) {
      report->Check(ValuesExact(run.result.values, expect_mid),
                    "chain sssp != DijkstraReference");
      if (measured) {
        ledger.Check(report, "chain", run.result);
        chain_s.push_back(run.seconds);
      }
    }
    return headline;
  };
  RunWindow(report, root.id(), 5, rep);
  report->MedianMetric("sssp_tail_s", sssp_s, 1.0, "s");
  report->MedianMetric("sssp_chain_s", chain_s, 1.0, "s");
}

}  // namespace vxbench
