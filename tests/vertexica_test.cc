// Tests for the Vertexica core: graph tables, the worker UDF, the
// coordinator superstep loop, and the §2.3 optimizations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "algorithms/sssp.h"
#include "exec/exec_knobs.h"
#include "exec/merge_join.h"
#include "graphgen/generators.h"
#include "storage/partition.h"
#include "vertexica/coordinator.h"
#include "vertexica/graph_tables.h"
#include "vertexica/worker.h"

namespace vertexica {
namespace {

// A tiny weighted digraph used across tests:
//   0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (2), 2 -> 3 (1), 1 -> 3 (7)
Graph Diamond() {
  Graph g;
  g.num_vertices = 4;
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 4.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 3, 1.0);
  g.AddEdge(1, 3, 7.0);
  return g;
}

TEST(GraphTablesTest, SchemasMatchPaperLayout) {
  Schema v = MakeVertexSchema(2);
  EXPECT_EQ(v.num_fields(), 4);  // id, halted, v0, v1
  EXPECT_EQ(v.field(0).name, "id");
  EXPECT_EQ(v.field(1).name, "halted");
  Schema e = MakeEdgeSchema();
  EXPECT_EQ(e.num_fields(), 3);  // src, dst, weight
  Schema m = MakeMessageSchema(1);
  EXPECT_EQ(m.num_fields(), 3);  // src (sender), dst (receiver), m0
  Schema u = MakeUnionSchema(2);
  EXPECT_EQ(u.num_fields(), 6);  // id, kind, other, halted, p0, p1
}

TEST(GraphTablesTest, LoadCreatesThreeTables) {
  Catalog cat;
  PageRankProgram program(3);
  ASSERT_TRUE(LoadGraphTables(&cat, Diamond(), program).ok());
  EXPECT_EQ(*cat.RowCount("vertex"), 4);
  EXPECT_EQ(*cat.RowCount("edge"), 5);
  EXPECT_EQ(*cat.RowCount("message"), 0);
  auto vertex = *cat.GetTable("vertex");
  // Initial rank = 1/N, halted = false.
  EXPECT_DOUBLE_EQ(vertex->ColumnByName("v0")->GetDouble(0), 0.25);
  EXPECT_FALSE(vertex->ColumnByName("halted")->GetBool(0));
  auto edge = *cat.GetTable("edge");
  EXPECT_DOUBLE_EQ(edge->ColumnByName("weight")->GetDouble(1), 4.0);
}

TEST(GraphTablesTest, ReadVertexValuesDense) {
  Catalog cat;
  ShortestPathProgram program(0);
  ASSERT_TRUE(LoadGraphTables(&cat, Diamond(), program).ok());
  auto vals = ReadVertexValues(cat, {});
  ASSERT_TRUE(vals.ok());
  ASSERT_EQ(vals->size(), 4u);
  EXPECT_DOUBLE_EQ((*vals)[0], 0.0);
  EXPECT_TRUE(std::isinf((*vals)[1]));
}

TEST(GraphTablesTest, WithRowNumbers) {
  Table t(Schema({{"x", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{9})}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{8})}));
  Table seq = WithRowNumbers(t, "seq");
  EXPECT_EQ(seq.num_columns(), 2);
  EXPECT_EQ(seq.ColumnByName("seq")->GetInt64(0), 0);
  EXPECT_EQ(seq.ColumnByName("seq")->GetInt64(1), 1);
}

TEST(PageRankVertexCentricTest, MatchesReference) {
  Graph g = Diamond();
  Catalog cat;
  auto ranks = RunPageRank(&cat, g, /*iters=*/10);
  ASSERT_TRUE(ranks.ok()) << ranks.status().ToString();
  auto expect = PageRankReference(g, 10);
  ASSERT_EQ(ranks->size(), expect.size());
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR((*ranks)[v], expect[v], 1e-9) << "vertex " << v;
  }
}

TEST(PageRankVertexCentricTest, MatchesReferenceOnRandomGraph) {
  Graph g = GenerateRmat(200, 1500, 17);
  Catalog cat;
  auto ranks = RunPageRank(&cat, g, 8);
  ASSERT_TRUE(ranks.ok());
  auto expect = PageRankReference(g, 8);
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR((*ranks)[v], expect[v], 1e-9);
  }
}

TEST(PageRankVertexCentricTest, StatsRecordSupersteps) {
  Graph g = Diamond();
  Catalog cat;
  RunStats stats;
  auto ranks = RunPageRank(&cat, g, 5, 0.85, {}, &stats);
  ASSERT_TRUE(ranks.ok());
  // iterations 0..5 compute, then one final no-op check.
  EXPECT_EQ(stats.num_supersteps(), 6);
  EXPECT_GT(stats.total_messages, 0);
  EXPECT_EQ(stats.supersteps[0].active_vertices, 4);
}

TEST(PageRankVertexCentricTest, PhaseBreakdownSumsToStepTime) {
  // The same phase accounting at every shard count: each shard times its
  // own input build, so input_seconds is never folded into worker time.
  Graph g = GenerateRmat(128, 900, 18);
  for (const int num_shards : {1, 4}) {
    SCOPED_TRACE(num_shards);
    VertexicaOptions opts;
    opts.num_shards = num_shards;
    Catalog cat;
    RunStats stats;
    ASSERT_TRUE(RunPageRank(&cat, g, 4, 0.85, opts, &stats).ok());
    for (const auto& s : stats.supersteps) {
      const double phases = s.input_seconds + s.worker_seconds +
                            s.split_seconds + s.apply_seconds;
      EXPECT_GT(phases, 0.0);
      EXPECT_LE(phases, s.seconds * 1.05 + 1e-3);
      EXPECT_GT(s.input_rows, 0);
      EXPECT_GT(s.input_seconds, 0.0);
    }
  }
}

TEST(SsspVertexCentricTest, MatchesDijkstra) {
  Graph g = Diamond();
  Catalog cat;
  auto dist = RunShortestPaths(&cat, g, 0);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  auto expect = DijkstraReference(g, 0);
  ASSERT_EQ(dist->size(), expect.size());
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_DOUBLE_EQ((*dist)[v], expect[v]) << "vertex " << v;
  }
  EXPECT_DOUBLE_EQ((*dist)[3], 4.0);  // 0->1->2->3 = 1+2+1
}

TEST(SsspVertexCentricTest, UnreachableStaysInfinite) {
  Graph g;
  g.num_vertices = 3;
  g.AddEdge(0, 1, 1.0);
  Catalog cat;
  auto dist = RunShortestPaths(&cat, g, 0);
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(std::isinf((*dist)[2]));
}

TEST(SsspVertexCentricTest, MessageDrivenHaltsEarly) {
  Graph g = Diamond();
  Catalog cat;
  RunStats stats;
  auto dist = RunShortestPaths(&cat, g, 0, {}, &stats);
  ASSERT_TRUE(dist.ok());
  // Diamond has diameter 3; the run should finish in a handful of
  // supersteps, not the max cap.
  EXPECT_LE(stats.num_supersteps(), 6);
}

TEST(OptimizationTest, JoinInputMatchesUnionInput) {
  Graph g = GenerateRmat(128, 800, 5);
  VertexicaOptions union_opts;
  union_opts.use_union_input = true;
  VertexicaOptions join_opts;
  join_opts.use_union_input = false;

  Catalog cat1;
  auto r1 = RunPageRank(&cat1, g, 5, 0.85, union_opts);
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 5, 0.85, join_opts);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_NEAR((*r1)[v], (*r2)[v], 1e-9);
  }
}

TEST(OptimizationTest, JoinInputMatchesUnionInputForSssp) {
  Graph g = GenerateRmat(128, 800, 6);
  AssignRandomWeights(&g, 1.0, 5.0, 7);
  VertexicaOptions join_opts;
  join_opts.use_union_input = false;
  Catalog cat1;
  auto d1 = RunShortestPaths(&cat1, g, 0);
  Catalog cat2;
  auto d2 = RunShortestPaths(&cat2, g, 0, join_opts);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  for (size_t v = 0; v < d1->size(); ++v) {
    EXPECT_DOUBLE_EQ((*d1)[v], (*d2)[v]);
  }
}

TEST(OptimizationTest, CombinerOnOffSameResult) {
  Graph g = GenerateRmat(128, 800, 8);
  VertexicaOptions no_comb;
  no_comb.use_combiner = false;
  Catalog cat1;
  auto r1 = RunPageRank(&cat1, g, 5);
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 5, 0.85, no_comb);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_NEAR((*r1)[v], (*r2)[v], 1e-9);
  }
}

TEST(OptimizationTest, CombinerShrinksMessageTable) {
  Graph g = GenerateRmat(128, 2000, 9);
  VertexicaOptions with_comb;
  with_comb.use_combiner = true;
  VertexicaOptions no_comb;
  no_comb.use_combiner = false;
  Catalog cat1;
  RunStats s1;
  ASSERT_TRUE(RunPageRank(&cat1, g, 4, 0.85, with_comb, &s1).ok());
  Catalog cat2;
  RunStats s2;
  ASSERT_TRUE(RunPageRank(&cat2, g, 4, 0.85, no_comb, &s2).ok());
  EXPECT_LT(s1.total_messages, s2.total_messages);
}

TEST(OptimizationTest, UpdateVsReplaceSameResult) {
  Graph g = GenerateRmat(128, 900, 10);
  VertexicaOptions always_update;
  always_update.update_threshold = 1.1;  // always in-place
  VertexicaOptions always_replace;
  always_replace.update_threshold = 0.0;  // always rebuild
  Catalog cat1;
  auto r1 = RunPageRank(&cat1, g, 5, 0.85, always_update);
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 5, 0.85, always_replace);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_NEAR((*r1)[v], (*r2)[v], 1e-9);
  }
}

TEST(OptimizationTest, ReplaceDecisionFollowsThreshold) {
  Graph g = Diamond();
  Catalog cat;
  RunStats stats;
  VertexicaOptions opts;
  opts.update_threshold = 0.0;  // force replace
  ASSERT_TRUE(RunPageRank(&cat, g, 3, 0.85, opts, &stats).ok());
  for (const auto& s : stats.supersteps) {
    if (s.vertex_updates > 0) {
      EXPECT_TRUE(s.used_replace);
    }
  }
  Catalog cat2;
  RunStats stats2;
  opts.update_threshold = 1.1;  // force in-place
  ASSERT_TRUE(RunPageRank(&cat2, g, 3, 0.85, opts, &stats2).ok());
  for (const auto& s : stats2.supersteps) {
    EXPECT_FALSE(s.used_replace);
  }
}

TEST(OptimizationTest, WorkerAndPartitionCountsDontChangeResults) {
  Graph g = GenerateRmat(128, 700, 11);
  std::vector<double> base;
  for (int workers : {1, 2, 4}) {
    for (int partitions : {0, 1, 8}) {
      VertexicaOptions opts;
      opts.num_workers = workers;
      opts.num_partitions = partitions;
      Catalog cat;
      auto r = RunPageRank(&cat, g, 4, 0.85, opts);
      ASSERT_TRUE(r.ok());
      if (base.empty()) {
        base = *r;
      } else {
        for (size_t v = 0; v < base.size(); ++v) {
          EXPECT_NEAR((*r)[v], base[v], 1e-9);
        }
      }
    }
  }
}

TEST(CoordinatorTest, AggregatorTracksRankMass) {
  Graph g = GenerateRmat(100, 600, 12);
  PageRankProgram program(4);
  Catalog cat;
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  Coordinator coord(&cat, &program);
  ASSERT_TRUE(coord.Run().ok());
  // Total rank mass stays near 1 (dangling vertices leak a little).
  auto it = coord.aggregates().find("pagerank_mass");
  ASSERT_NE(it, coord.aggregates().end());
  EXPECT_GT(it->second, 0.3);
  EXPECT_LE(it->second, 1.01);
}

TEST(CoordinatorTest, MaxSuperstepsBounds) {
  Graph g = Diamond();
  PageRankProgram program(1000);  // would run long
  Catalog cat;
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  VertexicaOptions opts;
  opts.max_supersteps = 3;
  RunStats stats;
  Coordinator coord(&cat, &program, opts);
  ASSERT_TRUE(coord.Run(&stats).ok());
  EXPECT_EQ(stats.num_supersteps(), 3);
}

TEST(CoordinatorTest, EmptyGraphTerminatesImmediately) {
  Graph g;
  g.num_vertices = 3;  // no edges
  Catalog cat;
  auto dist = RunShortestPaths(&cat, g, 0);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ((*dist)[0], 0.0);
  EXPECT_TRUE(std::isinf((*dist)[1]));
}

TEST(WorkerTest, RunnerSkipsInactiveVertex) {
  PageRankProgram program(2);
  WorkerSharedState shared;
  shared.program = &program;
  shared.superstep = 1;  // not superstep 0
  shared.num_vertices = 10;
  shared.payload_arity = 1;
  std::map<std::string, double> prev;
  shared.prev_aggregates = &prev;

  VertexRunner runner(&shared);
  UnionRowBuffer out(1);
  const double value = 0.1;
  runner.BeginVertex(5, /*halted=*/true, &value);  // halted, no messages
  EXPECT_FALSE(runner.FinishVertex(&out));
  EXPECT_TRUE(out.id.empty());
}

TEST(WorkerTest, RunnerReactivatesOnMessage) {
  ShortestPathProgram program(0);
  WorkerSharedState shared;
  shared.program = &program;
  shared.superstep = 2;
  shared.num_vertices = 10;
  shared.payload_arity = 1;
  std::map<std::string, double> prev;
  shared.prev_aggregates = &prev;

  VertexRunner runner(&shared);
  UnionRowBuffer out(1);
  const double inf = std::numeric_limits<double>::infinity();
  runner.BeginVertex(5, /*halted=*/true, &inf);
  runner.AddEdge(6, 1.0);
  const double msg = 3.0;
  runner.AddMessage(&msg);
  EXPECT_TRUE(runner.FinishVertex(&out));
  // Vertex row with changed state + one relaxation message to vertex 6.
  ASSERT_EQ(out.id.size(), 2u);
  EXPECT_EQ(out.kind[0], kVertexTuple);
  EXPECT_DOUBLE_EQ(out.payload[0][0], 3.0);
  EXPECT_EQ(out.kind[1], kMessageTuple);
  EXPECT_EQ(out.id[1], 6);
  EXPECT_DOUBLE_EQ(out.payload[0][1], 4.0);
}

// ---------------------------------------------------------------------------
// Order-aware superstep joins (exec/merge_join.h): with the join-input
// path, the sorted invariants (vertex by id, message by dst, edges by
// (src, dst)) turn both superstep joins into merge joins — zero hash
// builds — with results bit-identical to the hash path.
// ---------------------------------------------------------------------------

TEST(OptimizationTest, JoinInputRunsMergeJoinsOnly) {
  ScopedMergeJoin on(true);  // pin against a VERTEXICA_MERGE_JOIN=off env
  ScopedExecShards unsharded(1);  // exact per-step counters assume 1 shard
  Graph g = GenerateRmat(128, 800, 11);
  VertexicaOptions opts;
  opts.use_union_input = false;
  opts.update_threshold = 2.0;  // always in-place: no rebuild-path joins
  Catalog cat;
  RunStats stats;
  auto r = RunPageRank(&cat, g, 5, 0.85, opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(stats.supersteps.size(), 1u);
  for (const SuperstepStats& s : stats.supersteps) {
    // BuildJoinInput's vertex ⟕ message and ⟕ edge joins, merged.
    EXPECT_EQ(s.merge_joins, 2) << "superstep " << s.superstep;
    EXPECT_EQ(s.hash_joins, 0) << "superstep " << s.superstep;
    EXPECT_GT(s.join_rows, 0) << "superstep " << s.superstep;
  }
}

TEST(OptimizationTest, MergeJoinOnOffSameResult) {
  ScopedMergeJoin on(true);  // pin against a VERTEXICA_MERGE_JOIN=off env
  Graph g = GenerateRmat(128, 800, 12);
  VertexicaOptions opts;
  opts.use_union_input = false;
  Catalog cat1;
  RunStats s1;
  auto r1 = RunPageRank(&cat1, g, 5, 0.85, opts, &s1);
  Catalog cat2;
  RunStats s2;
  Result<std::vector<double>> r2 = [&] {
    ScopedMergeJoin hash(false);
    return RunPageRank(&cat2, g, 5, 0.85, opts, &s2);
  }();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t v = 0; v < r1->size(); ++v) {
    // Bit-identical, not just close: the merge join reproduces the hash
    // join's probe-row-major match order exactly.
    EXPECT_EQ((*r1)[v], (*r2)[v]) << "vertex " << v;
  }
  ASSERT_EQ(s1.supersteps.size(), s2.supersteps.size());
  int64_t merged = 0;
  int64_t hashed = 0;
  for (const SuperstepStats& s : s1.supersteps) merged += s.merge_joins;
  for (const SuperstepStats& s : s2.supersteps) {
    hashed += s.hash_joins;
    EXPECT_EQ(s.merge_joins, 0);  // the knob pins the hash path
  }
  EXPECT_GT(merged, 0);
  EXPECT_GT(hashed, 0);
}

TEST(OptimizationTest, MergeJoinSurvivesReplacePath) {
  // update_threshold = 0 forces the rebuild path every superstep; the
  // coordinator re-sorts the rebuilt vertex table, so merge joins keep
  // running and results still match the in-place path.
  ScopedMergeJoin on(true);  // pin against a VERTEXICA_MERGE_JOIN=off env
  ScopedExecShards unsharded(1);  // exact per-step counters assume 1 shard
  Graph g = GenerateRmat(64, 400, 13);
  VertexicaOptions replace_opts;
  replace_opts.use_union_input = false;
  replace_opts.update_threshold = 0.0;
  Catalog cat1;
  RunStats s1;
  auto r1 = RunPageRank(&cat1, g, 4, 0.85, replace_opts, &s1);
  VertexicaOptions inplace_opts;
  inplace_opts.use_union_input = false;
  inplace_opts.update_threshold = 2.0;
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 4, 0.85, inplace_opts);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_EQ((*r1)[v], (*r2)[v]) << "vertex " << v;
  }
  for (const SuperstepStats& s : s1.supersteps) {
    EXPECT_EQ(s.merge_joins, 2) << "superstep " << s.superstep;
    // The rebuild's anti join (unsorted build side) may hash; the two
    // superstep input joins must not.
    EXPECT_LE(s.hash_joins, 1) << "superstep " << s.superstep;
  }
}

TEST(OptimizationTest, MergeJoinSameResultForSssp) {
  Graph g = GenerateRmat(128, 800, 14);
  AssignRandomWeights(&g, 1.0, 5.0, 15);
  VertexicaOptions opts;
  opts.use_union_input = false;
  Catalog cat1;
  auto d1 = RunShortestPaths(&cat1, g, 0, opts);
  Catalog cat2;
  Result<std::vector<double>> d2 = [&] {
    ScopedMergeJoin hash(false);
    return RunShortestPaths(&cat2, g, 0, opts);
  }();
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  for (size_t v = 0; v < d1->size(); ++v) {
    EXPECT_EQ((*d1)[v], (*d2)[v]) << "vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// Persistent vertex-id sharding (storage/partition.h): with num_shards > 1
// the coordinator partitions the graph tables once per run, keeps shards
// resident, and only exchanges cross-shard messages between supersteps.
// Shards are contiguous blocks of the vertex-batching partitions, so
// results are bit-identical at any shard count — on both input paths, at
// any thread count.
// ---------------------------------------------------------------------------

TEST(ShardingTest, ShardedPageRankBitIdenticalAtAnyShardCount) {
  Graph g = GenerateRmat(200, 1500, 21);
  for (const bool union_input : {true, false}) {
    VertexicaOptions base;
    base.use_union_input = union_input;
    Catalog cat0;
    auto unsharded = RunPageRank(&cat0, g, 6, 0.85, base);
    ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
    for (const int shards : {1, 2, 8}) {
      VertexicaOptions opts = base;
      opts.num_shards = shards;
      Catalog cat;
      RunStats stats;
      auto sharded = RunPageRank(&cat, g, 6, 0.85, opts, &stats);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ASSERT_EQ(sharded->size(), unsharded->size());
      for (size_t v = 0; v < unsharded->size(); ++v) {
        EXPECT_EQ((*sharded)[v], (*unsharded)[v])
            << (union_input ? "union" : "join") << " input, shards="
            << shards << ", vertex " << v;
      }
      for (const SuperstepStats& s : stats.supersteps) {
        EXPECT_EQ(s.shards, shards);
      }
    }
  }
}

TEST(ShardingTest, ShardedSsspBitIdenticalAcrossThreadCounts) {
  Graph g = GenerateRmat(150, 900, 22);
  AssignRandomWeights(&g, 1.0, 5.0, 23);
  Catalog cat0;
  auto unsharded = RunShortestPaths(&cat0, g, 0, {});
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
  for (const int threads : {1, 4}) {
    ScopedExecThreads scoped(threads);
    VertexicaOptions opts;
    opts.num_shards = 4;
    Catalog cat;
    auto sharded = RunShortestPaths(&cat, g, 0, opts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_EQ(sharded->size(), unsharded->size());
    for (size_t v = 0; v < unsharded->size(); ++v) {
      EXPECT_EQ((*sharded)[v], (*unsharded)[v])
          << "threads=" << threads << ", vertex " << v;
    }
  }
}

TEST(ShardingTest, PerShardCountersReported) {
  Graph g = GenerateRmat(200, 1200, 24);
  VertexicaOptions opts;
  opts.num_shards = 4;
  Catalog cat;
  RunStats stats;
  auto r = RunPageRank(&cat, g, 5, 0.85, opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(stats.supersteps.size(), 1u);
  bool any_cross_shard = false;
  for (const SuperstepStats& s : stats.supersteps) {
    EXPECT_EQ(s.shards, 4);
    ASSERT_EQ(s.shard_input_rows.size(), 4u);
    ASSERT_EQ(s.shard_messages.size(), 4u);
    int64_t input_sum = 0;
    for (int64_t rows : s.shard_input_rows) input_sum += rows;
    EXPECT_EQ(input_sum, s.input_rows);
    int64_t message_sum = 0;
    for (int64_t rows : s.shard_messages) message_sum += rows;
    EXPECT_EQ(message_sum, s.messages_sent);
    if (s.cross_shard_messages > 0) any_cross_shard = true;
  }
  // An RMAT graph connects vertices across hash blocks, so some messages
  // must cross shards.
  EXPECT_TRUE(any_cross_shard);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(json.find("\"shard_input_rows\":["), std::string::npos);
  EXPECT_NE(json.find("\"cross_shard_messages\":"), std::string::npos);
}

TEST(ResidentEdgeTest, DenseSuperstepsBuildOnlyVertexAndMessageRows) {
  // Dense union-path supersteps take the edge section from a layout built
  // once per shard per run: after the first superstep, the rows projected,
  // scattered and sorted are the vertex rows plus that superstep's
  // inbound messages, while the rows handed to workers stay V + E + M.
  Graph g = GenerateRmat(300, 2400, 25);
  ScopedFrontierMode off(FrontierMode::kOff);
  for (const int shards : {1, 4}) {
    VertexicaOptions opts;
    opts.num_shards = shards;
    Catalog cat;
    RunStats stats;
    auto r = RunPageRank(&cat, g, 6, 0.85, opts, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const int64_t v = (*cat.GetTable("vertex"))->num_rows();
    const int64_t e = (*cat.GetTable("edge"))->num_rows();
    ASSERT_GT(e, 0);
    ASSERT_GT(stats.supersteps.size(), 2u);
    EXPECT_EQ(stats.resident_edge_rows, e) << "shards=" << shards;
    int64_t inbound = 0;  // messages stored for the superstep
    for (const SuperstepStats& s : stats.supersteps) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " superstep " << s.superstep);
      EXPECT_FALSE(s.used_frontier);
      EXPECT_EQ(s.input_rows, v + e + inbound);
      EXPECT_EQ(s.built_rows, s.superstep == 0 ? v + e : v + inbound);
      inbound = s.messages_sent;
    }
    const std::string json = stats.ToJson();
    EXPECT_NE(json.find("\"resident_edge_rows\":" + std::to_string(e)),
              std::string::npos);
    EXPECT_NE(json.find("\"built_rows\":" + std::to_string(v + e)),
              std::string::npos);
  }
}

/// The vertices each superstep of unit-weight SSSP from vertex 0 activates:
/// the out-neighbours of the vertices first reached (at their BFS level)
/// the superstep before — the receivers of that superstep's messages.
std::vector<std::set<int64_t>> UnitSsspActiveSets(const Graph& g) {
  std::vector<int64_t> level(static_cast<size_t>(g.num_vertices), -1);
  level[0] = 0;
  std::vector<std::set<int64_t>> active = {{}};
  for (int64_t s = 0;; ++s) {
    std::set<int64_t> receivers;
    for (int64_t e = 0; e < g.num_edges(); ++e) {
      if (level[static_cast<size_t>(g.src[static_cast<size_t>(e)])] == s) {
        receivers.insert(g.dst[static_cast<size_t>(e)]);
      }
    }
    if (receivers.empty()) return active;
    for (const int64_t v : receivers) {
      if (level[static_cast<size_t>(v)] < 0) {
        level[static_cast<size_t>(v)] = s + 1;
      }
    }
    active.push_back(std::move(receivers));
  }
}

TEST(ResidentEdgeTest, FrontierSuperstepsBuildOnlyActiveVertexAndMessageRows) {
  // Union-path frontier supersteps merge the same resident edge section as
  // dense ones: they build the frontier's vertex rows plus the inbound
  // messages, and hand workers exactly the active vertices' edges on top.
  // The join path builds every row it hands to workers.
  Graph g = GenerateRmat(200, 1500, 26);
  const std::vector<std::set<int64_t>> active_sets = UnitSsspActiveSets(g);
  std::vector<int64_t> out_degree(static_cast<size_t>(g.num_vertices), 0);
  for (const int64_t src : g.src) ++out_degree[static_cast<size_t>(src)];
  const int64_t e = g.num_edges();

  // Checks superstep `s` given the messages stored for it; `builds_section`
  // marks the superstep that lays out the resident edge section.
  const auto check = [&](const SuperstepStats& s, int64_t inbound,
                         bool union_input, bool builds_section) {
    SCOPED_TRACE(testing::Message()
                 << (union_input ? "union" : "join") << " superstep "
                 << s.superstep);
    if (!union_input) {
      EXPECT_EQ(s.built_rows, s.input_rows);
      return;
    }
    if (!s.used_frontier) return;
    ASSERT_LT(static_cast<size_t>(s.superstep), active_sets.size());
    const std::set<int64_t>& active =
        active_sets[static_cast<size_t>(s.superstep)];
    int64_t active_edges = 0;
    for (const int64_t v : active) {
      active_edges += out_degree[static_cast<size_t>(v)];
    }
    EXPECT_EQ(s.frontier_vertices, static_cast<int64_t>(active.size()));
    EXPECT_EQ(s.built_rows,
              s.frontier_vertices + inbound + (builds_section ? e : 0));
    EXPECT_EQ(s.input_rows,
              s.built_rows - (builds_section ? e : 0) + active_edges);
  };

  ScopedFrontierMode on(FrontierMode::kOn);
  for (const int shards : {1, 4}) {
    for (const bool union_input : {true, false}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards);
      VertexicaOptions opts;
      opts.use_union_input = union_input;
      opts.num_shards = shards;
      Catalog cat;
      RunStats stats;
      ASSERT_TRUE(RunShortestPaths(&cat, g, 0, opts, &stats).ok());
      ASSERT_EQ((*cat.GetTable("edge"))->num_rows(), e);
      ASSERT_GT(stats.frontier_supersteps, 0);
      // Superstep 0 is dense and lays out the section, once per run.
      EXPECT_EQ(stats.resident_edge_rows, union_input ? e : 0);
      int64_t inbound = 0;
      for (const SuperstepStats& s : stats.supersteps) {
        check(s, inbound, union_input, /*builds_section=*/false);
        inbound = s.messages_sent;
      }
    }
  }

  // A resumed union-path run whose first superstep is sparse lays out the
  // section on that frontier superstep.
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "resumed, shards=" << shards);
    ShortestPathProgram program(0);
    Catalog cat;
    ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
    VertexicaOptions opts;
    opts.num_shards = shards;
    opts.max_supersteps = 2;
    opts.checkpoint_every = 1;
    opts.checkpoint_dir = testing::TempDir() + "/vx_resident_resume";
    ASSERT_TRUE(Coordinator(&cat, &program, opts).Run().ok());

    VertexicaOptions resume = opts;
    resume.max_supersteps = 500;
    resume.checkpoint_every = 0;
    resume.resume_from_checkpoint = true;
    int64_t inbound = (*cat.GetTable("message"))->num_rows();
    ASSERT_GT(inbound, 0);
    RunStats stats;
    ASSERT_TRUE(Coordinator(&cat, &program, resume).Run(&stats).ok());
    ASSERT_FALSE(stats.supersteps.empty());
    EXPECT_EQ(stats.supersteps.front().superstep, 2);
    EXPECT_TRUE(stats.supersteps.front().used_frontier);
    EXPECT_EQ(stats.resident_edge_rows, e);
    for (const SuperstepStats& s : stats.supersteps) {
      check(s, inbound, /*union_input=*/true, s.superstep == 2);
      inbound = s.messages_sent;
    }
  }
}

TEST(ShardingTest, AmbientShardsKnobResolvesLikeThreads) {
  Graph g = Diamond();
  {
    ScopedExecShards scoped(2);
    Catalog cat;
    RunStats stats;
    ASSERT_TRUE(RunPageRank(&cat, g, 3, 0.85, {}, &stats).ok());
    ASSERT_FALSE(stats.supersteps.empty());
    EXPECT_EQ(stats.supersteps[0].shards, 2);
  }
  {
    // An explicit option wins over the ambient knob, like num_workers
    // vs. the threads knob.
    ScopedExecShards scoped(2);
    VertexicaOptions opts;
    opts.num_shards = 3;
    Catalog cat;
    RunStats stats;
    ASSERT_TRUE(RunPageRank(&cat, g, 3, 0.85, opts, &stats).ok());
    ASSERT_FALSE(stats.supersteps.empty());
    EXPECT_EQ(stats.supersteps[0].shards, 3);
  }
  {
    // Unsharded runs report shards = 1 with empty per-shard vectors.
    ScopedExecShards unsharded(1);  // pin against a VERTEXICA_SHARDS env
    Catalog cat;
    RunStats stats;
    ASSERT_TRUE(RunPageRank(&cat, g, 3, 0.85, {}, &stats).ok());
    ASSERT_FALSE(stats.supersteps.empty());
    EXPECT_EQ(stats.supersteps[0].shards, 1);
    EXPECT_TRUE(stats.supersteps[0].shard_input_rows.empty());
  }
}

TEST(ShardingTest, ShardedMergeJoinStillMergesOnly) {
  ScopedMergeJoin on(true);  // pin against a VERTEXICA_MERGE_JOIN=off env
  Graph g = GenerateRmat(128, 800, 25);
  VertexicaOptions opts;
  opts.use_union_input = false;
  opts.update_threshold = 2.0;  // in-place: no rebuild-path joins
  opts.num_shards = 4;
  Catalog cat;
  RunStats stats;
  auto r = RunPageRank(&cat, g, 5, 0.85, opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const SuperstepStats& s : stats.supersteps) {
    // Two input-build joins per shard, all merged: the per-shard tables
    // keep the sorted invariants (vertex by id, message by dst, edges by
    // (src, dst)) the planner needs.
    EXPECT_EQ(s.merge_joins, 2 * 4) << "superstep " << s.superstep;
    EXPECT_EQ(s.hash_joins, 0) << "superstep " << s.superstep;
  }
}

// ---------------------------------------------------------------------------
// Active-vertex frontier supersteps (docs/EXECUTOR.md): the worker input is
// gathered from a per-(shard-)table bitvector of non-halted vertices and
// message receivers instead of full scans; the union path then merges the
// active vertices' edges from the resident edge section by key. The
// contract under test: bit-identical to the dense path at any mode × shard
// count × thread count, on both input paths.
// ---------------------------------------------------------------------------

Graph ChainGraph(int64_t n) {
  Graph g;
  g.num_vertices = n;
  for (int64_t v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1, 1.0);
  return g;
}

TEST(FrontierTest, PageRankBitIdenticalAcrossModes) {
  Graph g = GenerateRmat(200, 1500, 31);
  for (const bool union_input : {true, false}) {
    VertexicaOptions opts;
    opts.use_union_input = union_input;
    // Pin the in-place update path: PageRank updates every vertex, so the
    // default threshold would take the replace path every superstep.
    opts.update_threshold = 2.0;
    Catalog cat0;
    std::vector<double> dense;
    {
      ScopedFrontierMode off(FrontierMode::kOff);
      auto r = RunPageRank(&cat0, g, 6, 0.85, opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      dense = *r;
    }
    for (const FrontierMode mode : {FrontierMode::kOn, FrontierMode::kAuto}) {
      ScopedFrontierMode scoped(mode);
      Catalog cat;
      RunStats stats;
      auto r = RunPageRank(&cat, g, 6, 0.85, opts, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->size(), dense.size());
      for (size_t v = 0; v < dense.size(); ++v) {
        EXPECT_EQ((*r)[v], dense[v])
            << (union_input ? "union" : "join") << " input, mode="
            << FrontierModeName(mode) << ", vertex " << v;
      }
      EXPECT_EQ(stats.frontier_supersteps + stats.dense_supersteps,
                static_cast<int64_t>(stats.supersteps.size()));
      if (mode == FrontierMode::kOn) {
        // Forced mode: every superstep past the first takes the sparse
        // path (superstep 0 is dense by definition).
        for (const SuperstepStats& s : stats.supersteps) {
          EXPECT_EQ(s.used_frontier, s.superstep > 0)
              << (union_input ? "union" : "join") << " input, superstep "
              << s.superstep;
        }
        EXPECT_GT(stats.frontier_supersteps, 0);
      }
    }
  }
}

TEST(FrontierTest, SsspBitIdenticalAcrossModesShardsAndThreads) {
  Graph g = GenerateRmat(150, 900, 32);
  AssignRandomWeights(&g, 1.0, 5.0, 33);
  Catalog cat0;
  std::vector<double> dense;
  {
    ScopedFrontierMode off(FrontierMode::kOff);
    auto r = RunShortestPaths(&cat0, g, 0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    dense = *r;
  }
  // The encoding axis changes how the loaded tables are stored (and so
  // which halted/dst access paths the frontier takes), never a value.
  for (const EncodingMode encoding :
       {EncodingMode::kOff, EncodingMode::kAuto, EncodingMode::kForce}) {
    for (const FrontierMode mode : {FrontierMode::kOn, FrontierMode::kAuto}) {
      for (const int shards : {1, 2, 8}) {
        ScopedEncodingMode scoped_encoding(encoding);
        ScopedFrontierMode scoped(mode);
        VertexicaOptions opts;
        opts.num_shards = shards;
        Catalog cat;
        auto r = RunShortestPaths(&cat, g, 0, opts);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_EQ(r->size(), dense.size());
        for (size_t v = 0; v < dense.size(); ++v) {
          EXPECT_EQ((*r)[v], dense[v])
              << "encoding=" << EncodingModeName(encoding)
              << ", mode=" << FrontierModeName(mode) << ", shards=" << shards
              << ", vertex " << v;
        }
      }
    }
  }
  for (const int threads : {1, 4}) {
    ScopedExecThreads scoped_threads(threads);
    ScopedFrontierMode on(FrontierMode::kOn);
    VertexicaOptions opts;
    opts.num_shards = 2;
    Catalog cat;
    auto r = RunShortestPaths(&cat, g, 0, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (size_t v = 0; v < dense.size(); ++v) {
      EXPECT_EQ((*r)[v], dense[v])
          << "threads=" << threads << ", vertex " << v;
    }
  }
}

TEST(FrontierTest, UnionPathGoesSparseOnAnyEdgeOrder) {
  // The union path's frontier supersteps take their edges from the
  // resident section by key, so the edge table needs no particular order:
  // a shuffled edge table, plus an edge whose src has no vertex row, still
  // goes sparse and stays bit-identical to the dense path.
  Graph g = GenerateRmat(150, 900, 34);
  AssignRandomWeights(&g, 1.0, 5.0, 35);
  // A chain tail from the source, so `auto` goes sparse too.
  const int64_t core = g.num_vertices;
  g.num_vertices += 40;
  g.AddEdge(0, core, 1.0);
  for (int64_t v = core; v + 1 < g.num_vertices; ++v) g.AddEdge(v, v + 1, 1.0);

  const auto run = [&g](FrontierMode mode, int shards,
                        RunStats* stats) -> Result<std::vector<double>> {
    ScopedFrontierMode scoped(mode);
    ShortestPathProgram program(0);
    Catalog cat;
    VX_RETURN_NOT_OK(LoadGraphTables(&cat, g, program));
    VX_ASSIGN_OR_RETURN(auto edge, cat.GetTable("edge"));
    // A stride permutation (7919 is prime, so coprime to the row count).
    const int64_t n = edge->num_rows();
    std::vector<int64_t> rows(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      rows[static_cast<size_t>(i)] = (i * 7919) % n;
    }
    Table shuffled = edge->Take(rows);
    VX_RETURN_NOT_OK(shuffled.AppendRow(
        {Value(g.num_vertices + 5), Value(int64_t{1}), Value(0.25)}));
    const auto& src = shuffled.column(0).ints();
    EXPECT_FALSE(std::is_sorted(src.begin(), src.end()));
    VX_RETURN_NOT_OK(cat.ReplaceTable("edge", std::move(shuffled)));
    VertexicaOptions opts;
    opts.num_shards = shards;
    Coordinator coordinator(&cat, &program, opts);
    VX_RETURN_NOT_OK(coordinator.Run(stats));
    return ReadVertexValues(cat, {});
  };

  auto dense = run(FrontierMode::kOff, 1, nullptr);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  for (const FrontierMode mode : {FrontierMode::kOn, FrontierMode::kAuto}) {
    for (const int shards : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "mode=" << FrontierModeName(mode)
                                      << ", shards=" << shards);
      RunStats stats;
      auto r = run(mode, shards, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_GT(stats.frontier_supersteps, 0);
      ASSERT_EQ(r->size(), dense->size());
      for (size_t v = 0; v < dense->size(); ++v) {
        EXPECT_EQ((*r)[v], (*dense)[v]) << "vertex " << v;
      }
    }
  }
}

/// Odd vertices halt at once; even vertices stay active for five supersteps
/// without ever receiving a message, counting the supersteps they compute.
/// Every 8-vertex word of the halted column then mixes halted and
/// non-halted vertices, and only the halted scan can put the even vertices
/// into the frontier.
class AlternateHaltProgram : public VertexProgram {
 public:
  int value_arity() const override { return 1; }
  int message_arity() const override { return 1; }
  void InitValue(int64_t, int64_t, double* v) const override { v[0] = 0; }
  void Compute(VertexContext* ctx) override {
    if (ctx->vertex_id() % 2 == 1 || ctx->superstep() >= 5) {
      ctx->VoteToHalt();
      return;
    }
    ctx->ModifyVertexValue(ctx->GetVertexValue(0) + 1.0);
  }
};

TEST(FrontierTest, NonHaltedVerticesWithoutMessagesStayActive) {
  Graph g;
  g.num_vertices = 43;  // five full words plus a tail
  ScopedFrontierMode on(FrontierMode::kOn);
  for (const bool union_input : {true, false}) {
    VertexicaOptions opts;
    opts.use_union_input = union_input;
    AlternateHaltProgram program;
    Catalog cat;
    RunStats stats;
    ASSERT_TRUE(RunVertexProgram(&cat, g, &program, opts, {}, &stats).ok());
    EXPECT_GT(stats.frontier_supersteps, 0);
    auto vals = ReadVertexValues(cat, {});
    ASSERT_TRUE(vals.ok());
    ASSERT_EQ(vals->size(), 43u);
    for (size_t v = 0; v < vals->size(); ++v) {
      EXPECT_EQ((*vals)[v], v % 2 == 0 ? 5.0 : 0.0)
          << (union_input ? "union" : "join") << " input, vertex " << v;
    }
  }
}

TEST(FrontierTest, AutoModeGoesSparseOnLongTail) {
  // SSSP on a chain: after superstep 0 every vertex is halted and exactly
  // one message is in flight, so the active fraction is 1/n — far below
  // the auto threshold. `auto` must take the sparse path on its own and
  // report it.
  Graph g = ChainGraph(100);
  ScopedFrontierMode automatic(FrontierMode::kAuto);
  ScopedExecShards unsharded(1);  // pin against a VERTEXICA_SHARDS env
  Catalog cat;
  RunStats stats;
  auto r = RunShortestPaths(&cat, g, 0, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t v = 0; v < r->size(); ++v) {
    EXPECT_DOUBLE_EQ((*r)[v], static_cast<double>(v));
  }
  ASSERT_GT(stats.supersteps.size(), 2u);
  EXPECT_FALSE(stats.supersteps[0].used_frontier);  // superstep 0 is dense
  EXPECT_GT(stats.frontier_supersteps, 0);
  for (const SuperstepStats& s : stats.supersteps) {
    if (!s.used_frontier) continue;
    // The chain frontier is one receiver (plus no stragglers).
    EXPECT_GE(s.frontier_vertices, 1) << "superstep " << s.superstep;
    EXPECT_LE(s.frontier_vertices, 2) << "superstep " << s.superstep;
  }
  EXPECT_EQ(stats.frontier_supersteps + stats.dense_supersteps,
            static_cast<int64_t>(stats.supersteps.size()));
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"frontier_supersteps\":"), std::string::npos);
  EXPECT_NE(json.find("\"used_frontier\":true"), std::string::npos);
  EXPECT_NE(json.find("\"frontier_vertices\":"), std::string::npos);
}

TEST(FrontierTest, OffModeNeverTakesTheSparsePath) {
  Graph g = ChainGraph(50);
  ScopedFrontierMode off(FrontierMode::kOff);
  Catalog cat;
  RunStats stats;
  auto r = RunShortestPaths(&cat, g, 0, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.frontier_supersteps, 0);
  EXPECT_EQ(stats.dense_supersteps,
            static_cast<int64_t>(stats.supersteps.size()));
  for (const SuperstepStats& s : stats.supersteps) {
    EXPECT_FALSE(s.used_frontier);
    EXPECT_EQ(s.frontier_vertices, 0);
  }
}

TEST(WorkerTest, UnionBufferToTable) {
  UnionRowBuffer buf(2);
  const double p[2] = {1.5, 2.5};
  buf.AppendRow(7, kMessageTuple, 3, false, p, 2);
  Table t = buf.ToTable();
  EXPECT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.ColumnByName("id")->GetInt64(0), 7);
  EXPECT_DOUBLE_EQ(t.ColumnByName("p1")->GetDouble(0), 2.5);
  // Buffer is reusable after ToTable.
  buf.AppendRow(1, kVertexTuple, 0, true, p, 1);
  Table t2 = buf.ToTable();
  EXPECT_EQ(t2.num_rows(), 1);
  EXPECT_DOUBLE_EQ(t2.ColumnByName("p1")->GetDouble(0), 0.0);  // padded
}

TEST(InvariantAuditTest, CatalogTablesPassDeepAuditAfterRuns) {
  // End-to-end audit coverage: the tables a finished run publishes —
  // sort-order declarations, segment encodings, zone maps included — must
  // withstand the same CheckInvariants the VX_DCHECK tier applies at every
  // phase boundary, at one shard and at several.
  Graph g = GenerateRmat(120, 600, 17);
  for (int shards : {0, 3}) {
    ScopedExecShards scoped(shards);
    Catalog cat;
    ASSERT_TRUE(RunPageRank(&cat, g, 6).ok());
    for (const char* const name : {"vertex", "edge", "message"}) {
      auto table = cat.GetTable(name);
      ASSERT_TRUE(table.ok()) << name;
      const Status st = (*table)->CheckInvariants();
      EXPECT_TRUE(st.ok()) << name << " (shards=" << shards
                           << "): " << st.ToString();
    }
  }
}

}  // namespace
}  // namespace vertexica
