// Unit tests for the relational operators and the plan builder.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "catalog/catalog.h"
#include "common/cancel.h"
#include "common/random.h"
#include "common/threadpool.h"
#include "exec/exec_knobs.h"
#include "exec/kernel_stats.h"
#include "exec/merge_join.h"
#include "exec/parallel.h"
#include "exec/plan_builder.h"
#include "exec/vectorized.h"
#include "storage/sort.h"

namespace vertexica {
namespace {

Table People() {
  Table t(Schema({{"id", DataType::kInt64},
                  {"age", DataType::kInt64},
                  {"city", DataType::kString}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(int64_t{30}), Value("bos")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(int64_t{25}), Value("nyc")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{3}), Value(int64_t{35}), Value("bos")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{4}), Value(int64_t{40}), Value("sfo")}));
  return t;
}

Table Orders() {
  Table t(Schema({{"person", DataType::kInt64}, {"amount", DataType::kDouble}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(10.0)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(20.0)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(5.0)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{9}), Value(99.0)}));
  return t;
}

TEST(ScanTest, EmitsAllRowsInBatches) {
  Table t = People();
  TableScan scan(t, /*batch_size=*/3);
  auto b1 = scan.Next();
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b1->has_value());
  EXPECT_EQ((*b1)->num_rows(), 3);
  auto b2 = scan.Next();
  ASSERT_TRUE(b2->has_value());
  EXPECT_EQ((*b2)->num_rows(), 1);
  auto b3 = scan.Next();
  EXPECT_FALSE(b3->has_value());
}

TEST(ScanTest, EmptyTable) {
  TableScan scan(Table(Schema({{"x", DataType::kInt64}})));
  auto b = scan.Next();
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->has_value());
}

TEST(FilterTest, KeepsMatchingRows) {
  auto result = PlanBuilder::Scan(People())
                    .Filter(Ge(Col("age"), Lit(int64_t{30})))
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);
}

TEST(FilterTest, DropsNullPredicateRows) {
  Table t(Schema({{"v", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1})}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  auto result = PlanBuilder::Scan(t).Filter(Gt(Col("v"), Lit(int64_t{0}))).Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1);
}

TEST(FilterTest, NonBoolPredicateFails) {
  auto result = PlanBuilder::Scan(People()).Filter(Col("age")).Execute();
  EXPECT_TRUE(result.status().IsTypeError());
}

TEST(ProjectTest, ComputesExpressions) {
  auto result = PlanBuilder::Scan(People())
                    .Project({{"id", Col("id")},
                              {"age2", Mul(Col("age"), Lit(int64_t{2}))}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().field(1).name, "age2");
  EXPECT_EQ(result->column(1).GetInt64(3), 80);
}

TEST(ProjectTest, TypeErrorSurfacesAtExecution) {
  auto result = PlanBuilder::Scan(People())
                    .Project({{"bad", Add(Col("city"), Lit(int64_t{1}))}})
                    .Execute();
  EXPECT_TRUE(result.status().IsTypeError());
}

TEST(HashJoinTest, InnerJoinMatches) {
  auto result = PlanBuilder::Scan(Orders())
                    .Join(PlanBuilder::Scan(People()), {"person"}, {"id"})
                    .Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Orders for persons 1 (x2) and 2; person 9 has no match.
  EXPECT_EQ(result->num_rows(), 3);
  EXPECT_EQ(result->schema().num_fields(), 5);
}

TEST(HashJoinTest, LeftJoinPadsWithNulls) {
  auto result = PlanBuilder::Scan(Orders())
                    .Join(PlanBuilder::Scan(People()), {"person"}, {"id"},
                          JoinType::kLeft)
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 4);
  // Find the person=9 row: its joined id must be NULL.
  const auto& person = result->ColumnByName("person")->ints();
  int64_t row9 = -1;
  for (size_t i = 0; i < person.size(); ++i) {
    if (person[i] == 9) row9 = static_cast<int64_t>(i);
  }
  ASSERT_GE(row9, 0);
  EXPECT_TRUE(result->ColumnByName("id")->IsNull(row9));
}

TEST(HashJoinTest, SemiJoinKeepsLeftColumnsOnly) {
  auto result = PlanBuilder::Scan(Orders())
                    .Join(PlanBuilder::Scan(People()), {"person"}, {"id"},
                          JoinType::kSemi)
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);
  EXPECT_EQ(result->schema().num_fields(), 2);
}

TEST(HashJoinTest, AntiJoinKeepsNonMatching) {
  auto result = PlanBuilder::Scan(Orders())
                    .Join(PlanBuilder::Scan(People()), {"person"}, {"id"},
                          JoinType::kAnti)
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1);
  EXPECT_EQ(result->column(0).GetInt64(0), 9);
}

TEST(HashJoinTest, DuplicateBuildKeysFanOut) {
  // Join people against orders (build side has dup keys for person 1).
  auto result = PlanBuilder::Scan(People())
                    .Join(PlanBuilder::Scan(Orders()), {"id"}, {"person"})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);  // person1 x2 + person2 x1
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  Table l(Schema({{"k", DataType::kInt64}}));
  VX_CHECK_OK(l.AppendRow({Value::Null()}));
  VX_CHECK_OK(l.AppendRow({Value(int64_t{1})}));
  Table r(Schema({{"k", DataType::kInt64}}));
  VX_CHECK_OK(r.AppendRow({Value::Null()}));
  VX_CHECK_OK(r.AppendRow({Value(int64_t{1})}));
  auto inner = PlanBuilder::Scan(l)
                   .Join(PlanBuilder::Scan(r), {"k"}, {"k"})
                   .Execute();
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->num_rows(), 1);
  auto left = PlanBuilder::Scan(l)
                  .Join(PlanBuilder::Scan(r), {"k"}, {"k"}, JoinType::kLeft)
                  .Execute();
  EXPECT_EQ(left->num_rows(), 2);  // null row padded
}

TEST(HashJoinTest, CollidingNamesGetSuffix) {
  auto result = PlanBuilder::Scan(People())
                    .Join(PlanBuilder::Scan(People()), {"id"}, {"id"})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->schema().HasField("id_r"));
  EXPECT_TRUE(result->schema().HasField("age_r"));
}

TEST(HashJoinTest, MultiColumnKeys) {
  Table l(Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  VX_CHECK_OK(l.AppendRow({Value(int64_t{1}), Value("x")}));
  VX_CHECK_OK(l.AppendRow({Value(int64_t{1}), Value("y")}));
  Table r(Schema({{"a", DataType::kInt64}, {"b", DataType::kString},
                  {"v", DataType::kInt64}}));
  VX_CHECK_OK(r.AppendRow({Value(int64_t{1}), Value("y"), Value(int64_t{7})}));
  auto result = PlanBuilder::Scan(l)
                    .Join(PlanBuilder::Scan(r), {"a", "b"}, {"a", "b"})
                    .Execute();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1);
  EXPECT_EQ(result->ColumnByName("v")->GetInt64(0), 7);
}

TEST(AggregateTest, GroupBySumCount) {
  auto result =
      PlanBuilder::Scan(Orders())
          .Aggregate({"person"}, {{AggOp::kSum, "amount", "total"},
                                  {AggOp::kCountStar, "", "n"}})
          .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);
  // Find person 1.
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    if (result->column(0).GetInt64(i) == 1) {
      EXPECT_DOUBLE_EQ(result->column(1).GetDouble(i), 30.0);
      EXPECT_EQ(result->column(2).GetInt64(i), 2);
    }
  }
}

TEST(AggregateTest, GlobalAggregateOnEmptyInput) {
  Table empty(Schema({{"v", DataType::kInt64}}));
  auto result = PlanBuilder::Scan(empty)
                    .Aggregate({}, {{AggOp::kCountStar, "", "n"},
                                    {AggOp::kSum, "v", "s"},
                                    {AggOp::kMin, "v", "mn"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1);
  EXPECT_EQ(result->column(0).GetInt64(0), 0);
  EXPECT_TRUE(result->column(1).IsNull(0));
  EXPECT_TRUE(result->column(2).IsNull(0));
}

TEST(AggregateTest, MinMaxAvg) {
  auto result = PlanBuilder::Scan(People())
                    .Aggregate({}, {{AggOp::kMin, "age", "mn"},
                                    {AggOp::kMax, "age", "mx"},
                                    {AggOp::kAvg, "age", "avg"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).GetInt64(0), 25);
  EXPECT_EQ(result->column(1).GetInt64(0), 40);
  EXPECT_DOUBLE_EQ(result->column(2).GetDouble(0), 32.5);
}

TEST(AggregateTest, IntSumStaysInt) {
  auto result = PlanBuilder::Scan(People())
                    .Aggregate({}, {{AggOp::kSum, "age", "s"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(result->column(0).GetInt64(0), 130);
}

TEST(AggregateTest, CountIgnoresNulls) {
  Table t(Schema({{"v", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1})}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  auto result = PlanBuilder::Scan(t)
                    .Aggregate({}, {{AggOp::kCount, "v", "c"},
                                    {AggOp::kCountStar, "", "n"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).GetInt64(0), 1);
  EXPECT_EQ(result->column(1).GetInt64(0), 2);
}

TEST(AggregateTest, StringGroupKeys) {
  auto result = PlanBuilder::Scan(People())
                    .Aggregate({"city"}, {{AggOp::kCountStar, "", "n"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    if (result->column(0).GetString(i) == "bos") {
      EXPECT_EQ(result->column(1).GetInt64(i), 2);
    }
  }
}

TEST(AggregateTest, MinMaxOnStrings) {
  auto result = PlanBuilder::Scan(People())
                    .Aggregate({}, {{AggOp::kMin, "city", "mn"},
                                    {AggOp::kMax, "city", "mx"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).GetString(0), "bos");
  EXPECT_EQ(result->column(1).GetString(0), "sfo");
}

TEST(UnionAllTest, ConcatenatesAndRenames) {
  Table a(Schema({{"x", DataType::kInt64}}));
  VX_CHECK_OK(a.AppendRow({Value(int64_t{1})}));
  Table b(Schema({{"y", DataType::kInt64}}));
  VX_CHECK_OK(b.AppendRow({Value(int64_t{2})}));
  auto result =
      PlanBuilder::Scan(a).Union(PlanBuilder::Scan(b)).Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2);
  EXPECT_EQ(result->schema().field(0).name, "x");
}

TEST(UnionAllTest, TypeMismatchFails) {
  Table a(Schema({{"x", DataType::kInt64}}));
  Table b(Schema({{"x", DataType::kString}}));
  auto result = PlanBuilder::Scan(a).Union(PlanBuilder::Scan(b)).Execute();
  EXPECT_TRUE(result.status().IsTypeError());
}

TEST(SortOpTest, OrderByDescending) {
  auto result = PlanBuilder::Scan(People())
                    .OrderBy({{"age", false}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ColumnByName("age")->GetInt64(0), 40);
  EXPECT_EQ(result->ColumnByName("age")->GetInt64(3), 25);
}

TEST(LimitTest, TruncatesAcrossBatches) {
  Table t(Schema({{"v", DataType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) VX_CHECK_OK(t.AppendRow({Value(i)}));
  auto op = PlanBuilder::Scan(t, /*batch_size=*/7).Limit(20).Build();
  auto result = Collect(op.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 20);
}

TEST(DistinctTest, RemovesDuplicateRows) {
  Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value("x")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value("x")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value("y")}));
  auto result = PlanBuilder::Scan(t).Distinct().Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2);
}

TEST(DistinctTest, TreatsNullsAsEqual) {
  Table t(Schema({{"a", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  auto result = PlanBuilder::Scan(t).Distinct().Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1);
}

TEST(PlanBuilderTest, SelectReordersColumns) {
  auto result =
      PlanBuilder::Scan(People()).Select({"city", "id"}).Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().field(0).name, "city");
  EXPECT_EQ(result->schema().field(1).name, "id");
}

TEST(PlanBuilderTest, RenamePositional) {
  auto result = PlanBuilder::Scan(Orders()).Rename({"p", "amt"}).Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->schema().HasField("p"));
  EXPECT_TRUE(result->schema().HasField("amt"));
}

TEST(PlanBuilderTest, EndToEndPipeline) {
  // Average order amount per city of people over 24, sorted by city.
  auto result =
      PlanBuilder::Scan(Orders())
          .Join(PlanBuilder::Scan(People()).Filter(
                    Gt(Col("age"), Lit(int64_t{24}))),
                {"person"}, {"id"})
          .Aggregate({"city"}, {{AggOp::kAvg, "amount", "avg_amt"}})
          .OrderBy({{"city", true}})
          .Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2);
  EXPECT_EQ(result->column(0).GetString(0), "bos");
  EXPECT_DOUBLE_EQ(result->column(1).GetDouble(0), 15.0);
  EXPECT_EQ(result->column(0).GetString(1), "nyc");
  EXPECT_DOUBLE_EQ(result->column(1).GetDouble(1), 5.0);
}

TEST(ExplainTest, RendersPlanTree) {
  auto plan = PlanBuilder::Scan(Orders())
                  .Join(PlanBuilder::Scan(People()).Filter(
                            Gt(Col("age"), Lit(int64_t{24}))),
                        {"person"}, {"id"})
                  .Aggregate({"city"}, {{AggOp::kAvg, "amount", "avg_amt"}})
                  .OrderBy({{"city", true}})
                  .Limit(3);
  const std::string explain = plan.Explain();
  EXPECT_NE(explain.find("Limit(3)"), std::string::npos);
  EXPECT_NE(explain.find("Sort(city asc)"), std::string::npos);
  EXPECT_NE(explain.find("HashAggregate(by: city; AVG(amount))"),
            std::string::npos);
  EXPECT_NE(explain.find("HashJoin[INNER](person = id)"), std::string::npos);
  EXPECT_NE(explain.find("Filter((age > 24))"), std::string::npos);
  EXPECT_NE(explain.find("TableScan(4 rows)"), std::string::npos);
  // Tree shape: Limit at depth 0, scans further indented.
  EXPECT_EQ(explain.rfind("Limit(3)\n", 0), 0u);
}

TEST(ExplainTest, UnionAndTopN) {
  Table a(Schema({{"x", DataType::kInt64}}));
  Table b(Schema({{"x", DataType::kInt64}}));
  auto plan = PlanBuilder::Scan(a)
                  .Union(PlanBuilder::Scan(b))
                  .Distinct()
                  .TopN({{"x", false}}, 7);
  const std::string explain = plan.Explain();
  EXPECT_NE(explain.find("TopN(7)"), std::string::npos);
  EXPECT_NE(explain.find("Distinct"), std::string::npos);
  EXPECT_NE(explain.find("UnionAll"), std::string::npos);
}

TEST(CatalogTest, CreateGetReplaceDrop) {
  Catalog cat;
  EXPECT_TRUE(cat.CreateTable("t", People()).ok());
  EXPECT_TRUE(cat.CreateTable("t", People()).IsAlreadyExists());
  EXPECT_TRUE(cat.HasTable("t"));
  auto t = cat.GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 4);
  EXPECT_EQ(*cat.RowCount("t"), 4);

  Table smaller = People().Slice(0, 1);
  EXPECT_TRUE(cat.ReplaceTable("t", smaller).ok());
  EXPECT_EQ(*cat.RowCount("t"), 1);

  EXPECT_TRUE(cat.DropTable("t").ok());
  EXPECT_FALSE(cat.HasTable("t"));
  EXPECT_TRUE(cat.DropTable("t").IsNotFound());
  EXPECT_TRUE(cat.GetTable("t").status().IsNotFound());
}

TEST(CatalogTest, SnapshotsAreImmutable) {
  Catalog cat;
  VX_CHECK_OK(cat.CreateTable("t", People()));
  auto snap = *cat.GetTable("t");
  VX_CHECK_OK(cat.ReplaceTable("t", Table(Schema({{"x", DataType::kInt64}}))));
  // The old snapshot still sees 4 rows.
  EXPECT_EQ(snap->num_rows(), 4);
  EXPECT_EQ(*cat.RowCount("t"), 0);
}

// ---------------------------------------------------------------------------
// Morsel-parallel executor determinism (exec/parallel.h): the parallel
// kernels must produce row-set-identical results to the serial reference
// operators at 1/2/8 threads and adversarial morsel sizes, and bit-identical
// results across thread counts.
// ---------------------------------------------------------------------------

/// Random keyed table: k INT64 (low cardinality), v INT64, x DOUBLE, with
/// ~10% NULLs in v/x.
Table KeyedTable(uint64_t seed, int64_t rows, int64_t key_range) {
  Rng rng(seed);
  Table t(Schema({{"k", DataType::kInt64},
                  {"v", DataType::kInt64},
                  {"x", DataType::kDouble}}));
  for (int64_t r = 0; r < rows; ++r) {
    auto maybe_null = [&](Value v) {
      return rng.Bernoulli(0.1) ? Value::Null() : v;
    };
    VX_CHECK_OK(t.AppendRow(
        {Value(static_cast<int64_t>(rng.Uniform(
             static_cast<uint64_t>(key_range)))),
         maybe_null(Value(rng.UniformRange(-100, 100))),
         maybe_null(Value(rng.NextDouble()))}));
  }
  return t;
}

/// Canonical row order (sort by every column) for row-set comparison.
Table Sorted(const Table& t) {
  std::vector<SortKey> keys;
  for (int c = 0; c < t.num_columns(); ++c) keys.push_back(SortKey{c, true});
  return SortTable(t, keys);
}

const int kThreadSweep[] = {1, 2, 8};
const int64_t kMorselSweep[] = {1, 7, kDefaultMorselRows};

TEST(ParallelExecTest, FilterProjectMatchesSerialExactly) {
  const Table t = KeyedTable(11, 1000, 50);
  const ExprPtr pred = Gt(Col("v"), Lit(int64_t{0}));
  const std::vector<ProjectionSpec> proj = {
      {"k", Col("k")}, {"v2", Mul(Col("v"), Lit(int64_t{2}))}};
  auto serial = PlanBuilder::Scan(t).Filter(pred).Project(proj).Execute();
  ASSERT_TRUE(serial.ok());
  const auto shared = std::make_shared<const Table>(t);
  for (int threads : kThreadSweep) {
    for (int64_t morsel : kMorselSweep) {
      ParallelOptions opts;
      opts.num_threads = threads;
      opts.morsel_rows = morsel;
      auto parallel = ParallelFilterProject(shared, pred, proj, opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      // The morsel driver preserves row order, so equality is exact.
      EXPECT_TRUE(parallel->Equals(*serial))
          << "threads=" << threads << " morsel=" << morsel;
    }
  }
}

TEST(ParallelExecTest, JoinMatchesSerialAllTypesExactly) {
  const Table probe = KeyedTable(21, 700, 40);
  const Table build = KeyedTable(22, 300, 40);
  for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                        JoinType::kAnti}) {
    HashJoinOp serial_op(std::make_unique<TableScan>(probe),
                         std::make_unique<TableScan>(build), {"k"}, {"k"},
                         type);
    auto serial = Collect(&serial_op);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int threads : kThreadSweep) {
      for (int64_t morsel : kMorselSweep) {
        ParallelOptions opts;
        opts.num_threads = threads;
        opts.morsel_rows = morsel;
        auto parallel =
            ParallelHashJoin(probe, build, {"k"}, {"k"}, type, opts);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        // The parallel join reproduces the serial probe-row-major match
        // order exactly, at any thread count and morsel size.
        EXPECT_TRUE(parallel->Equals(*serial))
            << JoinTypeName(type) << " threads=" << threads
            << " morsel=" << morsel;
      }
    }
  }
}

TEST(ParallelExecTest, CollisionHeavyJoinKeys) {
  // Every row hashes to one of two keys: chains are long and fan-out is
  // quadratic per key — a worst case for partitioned builds.
  const Table probe = KeyedTable(31, 400, 2);
  const Table build = KeyedTable(32, 200, 2);
  HashJoinOp serial_op(std::make_unique<TableScan>(probe),
                       std::make_unique<TableScan>(build), {"k"}, {"k"},
                       JoinType::kInner);
  auto serial = Collect(&serial_op);
  ASSERT_TRUE(serial.ok());
  ParallelOptions opts;
  opts.num_threads = 8;
  opts.morsel_rows = 13;
  auto parallel =
      ParallelHashJoin(probe, build, {"k"}, {"k"}, JoinType::kInner, opts);
  ASSERT_TRUE(parallel.ok());
  EXPECT_GT(parallel->num_rows(), 10000);
  EXPECT_TRUE(parallel->Equals(*serial));
}

TEST(ParallelExecTest, MultiKeyNullKeyJoin) {
  // NULL keys never match, including in parallel probes.
  Table l(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  Table r(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  for (int64_t i = 0; i < 50; ++i) {
    VX_CHECK_OK(l.AppendRow({i % 2 == 0 ? Value::Null() : Value(i % 5),
                             Value(i % 3)}));
    VX_CHECK_OK(r.AppendRow({Value(i % 5),
                             i % 7 == 0 ? Value::Null() : Value(i % 3)}));
  }
  HashJoinOp serial_op(std::make_unique<TableScan>(l),
                       std::make_unique<TableScan>(r), {"a", "b"}, {"a", "b"},
                       JoinType::kLeft);
  auto serial = Collect(&serial_op);
  ASSERT_TRUE(serial.ok());
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.morsel_rows = 3;
  auto parallel =
      ParallelHashJoin(l, r, {"a", "b"}, {"a", "b"}, JoinType::kLeft, opts);
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(parallel->Equals(*serial));
}

TEST(ParallelExecTest, AggregateRowSetMatchesSerial) {
  const Table t = KeyedTable(41, 2000, 30);
  const std::vector<AggSpec> aggs = {{AggOp::kCountStar, "", "n"},
                                     {AggOp::kCount, "v", "cv"},
                                     {AggOp::kSum, "v", "sv"},
                                     {AggOp::kMin, "v", "mn"},
                                     {AggOp::kMax, "v", "mx"}};
  // Integer aggregates merge exactly, so parallel == serial bit-for-bit.
  HashAggregateOp serial_op(std::make_unique<TableScan>(t), {"k"}, aggs);
  auto serial = Collect(&serial_op);
  ASSERT_TRUE(serial.ok());
  for (int threads : kThreadSweep) {
    for (int64_t morsel : kMorselSweep) {
      ParallelOptions opts;
      opts.num_threads = threads;
      opts.morsel_rows = morsel;
      auto parallel = ParallelHashAggregate(t, {"k"}, aggs, opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_TRUE(Sorted(*parallel).Equals(Sorted(*serial)))
          << "threads=" << threads << " morsel=" << morsel;
      // Group order is global first-appearance order, like the serial op.
      EXPECT_TRUE(parallel->Equals(*serial))
          << "threads=" << threads << " morsel=" << morsel;
    }
  }
}

TEST(ParallelExecTest, DoubleAggregatesBitIdenticalAcrossThreads) {
  const Table t = KeyedTable(51, 3000, 10);
  const std::vector<AggSpec> aggs = {{AggOp::kSum, "x", "sx"},
                                     {AggOp::kAvg, "x", "ax"}};
  // Chunk boundaries depend only on morsel_rows, so any thread count gives
  // the same FP merge order: results must be bit-identical.
  ParallelOptions base;
  base.morsel_rows = 64;
  base.num_threads = 1;
  auto reference = ParallelHashAggregate(t, {"k"}, aggs, base);
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 4, 8}) {
    ParallelOptions opts = base;
    opts.num_threads = threads;
    auto out = ParallelHashAggregate(t, {"k"}, aggs, opts);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->Equals(*reference)) << "threads=" << threads;
  }
  // And row-set equal (within FP rounding) to the serial fold.
  HashAggregateOp serial_op(std::make_unique<TableScan>(t), {"k"}, aggs);
  auto serial = Collect(&serial_op);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(reference->num_rows(), serial->num_rows());
  const Table sp = Sorted(*reference);
  const Table ss = Sorted(*serial);
  for (int64_t r = 0; r < sp.num_rows(); ++r) {
    EXPECT_EQ(sp.column(0).GetInt64(r), ss.column(0).GetInt64(r));
    EXPECT_NEAR(sp.column(1).GetDouble(r), ss.column(1).GetDouble(r), 1e-9);
    EXPECT_NEAR(sp.column(2).GetDouble(r), ss.column(2).GetDouble(r), 1e-9);
  }
}

/// Same double, bit for bit (so -0.0 != 0.0); any NaN matches any NaN.
bool SameDouble(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

// MIN/MAX over DOUBLE fold in the storage total order (NaN after every
// number, equal to itself), so a NaN that seeds a chunk's partial cannot
// hide that chunk's later values: MIN skips NaN unless every value is NaN,
// MAX is NaN if any value is, and the serial operator and every grain and
// thread count agree bit for bit (the first of equal values is kept).
TEST(ParallelExecTest, MinMaxWithNaNIndependentOfChunking) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> inputs = {
      {1, 2, nan, 0.5}, {1, 2, nan, 5},   {nan, 3, 1, 2},
      {nan, nan},       {-0.0, 0.0, nan}, {2, nan, -0.0, 0.0, 1}};
  const int64_t n = 40000;
  const std::vector<std::vector<int64_t>> nan_rows = {
      {0}, {n / 2}, {kDefaultMorselRows - 1, kDefaultMorselRows}, {1, 2, 3}};
  for (const auto& rows : nan_rows) {
    std::vector<double> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] = static_cast<double>((i * 7919) % 10007) -
                                  5000.0;
    }
    for (int64_t r : rows) v[static_cast<size_t>(r)] = nan;
    inputs.push_back(std::move(v));
  }
  const std::vector<AggSpec> aggs = {{AggOp::kMin, "x", "mn"},
                                     {AggOp::kMax, "x", "mx"}};
  for (size_t in = 0; in < inputs.size(); ++in) {
    const std::vector<double>& x = inputs[in];
    constexpr int64_t kGroups = 3;
    Table t(Schema({{"k", DataType::kInt64}, {"x", DataType::kDouble}}));
    for (size_t i = 0; i < x.size(); ++i) {
      VX_CHECK_OK(t.AppendRow(
          {Value(static_cast<int64_t>(i) % kGroups), Value(x[i])}));
    }
    for (const std::vector<std::string>& group_by :
         {std::vector<std::string>{}, std::vector<std::string>{"k"}}) {
      SCOPED_TRACE(::testing::Message() << "input " << in << " groups "
                                        << group_by.size());
      HashAggregateOp serial_op(std::make_unique<TableScan>(t), group_by,
                                aggs);
      auto serial = Collect(&serial_op);
      ASSERT_TRUE(serial.ok());
      const int agg0 = static_cast<int>(group_by.size());
      // The serial result is the documented one: the first least non-NaN
      // value (NaN when there is none) and NaN when any value is NaN, else
      // the first greatest.
      for (int64_t g = 0; g < serial->num_rows(); ++g) {
        double mn = nan;
        double mx = nan;
        bool any_nan = false;
        for (size_t i = 0; i < x.size(); ++i) {
          if (!group_by.empty() &&
              static_cast<int64_t>(i) % kGroups !=
                  serial->column(0).GetInt64(g)) {
            continue;
          }
          if (std::isnan(x[i])) {
            any_nan = true;
            continue;
          }
          if (std::isnan(mn) || x[i] < mn) mn = x[i];
          if (std::isnan(mx) || x[i] > mx) mx = x[i];
        }
        if (any_nan) mx = nan;
        EXPECT_TRUE(SameDouble(serial->column(agg0).GetDouble(g), mn))
            << serial->column(agg0).GetDouble(g) << " vs " << mn;
        EXPECT_TRUE(SameDouble(serial->column(agg0 + 1).GetDouble(g), mx))
            << serial->column(agg0 + 1).GetDouble(g) << " vs " << mx;
      }
      for (int64_t grain : {int64_t{1}, int64_t{2}, kDefaultMorselRows}) {
        for (int threads : {1, 8}) {
          ParallelOptions opts;
          opts.num_threads = threads;
          opts.morsel_rows = grain;
          auto parallel = ParallelHashAggregate(t, group_by, aggs, opts);
          ASSERT_TRUE(parallel.ok());
          ASSERT_EQ(parallel->num_rows(), serial->num_rows());
          for (int64_t g = 0; g < serial->num_rows(); ++g) {
            for (int c = 0; c < serial->num_columns(); ++c) {
              const bool same =
                  c < agg0 ? parallel->column(c).GetInt64(g) ==
                                 serial->column(c).GetInt64(g)
                           : SameDouble(parallel->column(c).GetDouble(g),
                                        serial->column(c).GetDouble(g));
              EXPECT_TRUE(same) << "grain=" << grain << " threads="
                                << threads << " row " << g << " col " << c;
            }
          }
        }
      }
    }
  }
}

// MIN/MAX over INT64 compare the integers themselves, not their double
// images, which collide above 2^53.
TEST(ParallelExecTest, MinMaxInt64ExactAbove2To53) {
  const int64_t big = int64_t{1} << 53;
  for (const std::vector<int64_t>& vals :
       {std::vector<int64_t>{big + 1, big}, std::vector<int64_t>{big, big + 1}}) {
    Table t(Schema({{"v", DataType::kInt64}}));
    for (int64_t v : vals) VX_CHECK_OK(t.AppendRow({Value(v)}));
    HashAggregateOp op(std::make_unique<TableScan>(t), {},
                       {{AggOp::kMin, "v", "mn"}, {AggOp::kMax, "v", "mx"}});
    auto out = Collect(&op);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->column(0).GetInt64(0), big);
    EXPECT_EQ(out->column(1).GetInt64(0), big + 1);
  }
}

TEST(ParallelExecTest, EmptyAndTinyInputs) {
  const Table empty(Schema({{"k", DataType::kInt64},
                            {"v", DataType::kInt64},
                            {"x", DataType::kDouble}}));
  ParallelOptions opts;
  opts.num_threads = 8;
  opts.morsel_rows = 1;

  // Empty probe, empty build, and both.
  const Table one = KeyedTable(61, 1, 3);
  for (const auto& [probe, build] :
       {std::pair<const Table&, const Table&>{empty, one},
        {one, empty},
        {empty, empty}}) {
    auto out = ParallelHashJoin(probe, build, {"k"}, {"k"}, JoinType::kInner,
                                opts);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->num_rows(), 0);
    EXPECT_EQ(out->num_columns(), 6);
  }

  // Global aggregate over an empty table still yields its single row.
  auto agg = ParallelHashAggregate(
      empty, {}, {{AggOp::kCountStar, "", "n"}, {AggOp::kSum, "v", "s"}},
      opts);
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->num_rows(), 1);
  EXPECT_EQ(agg->column(0).GetInt64(0), 0);
  EXPECT_TRUE(agg->column(1).IsNull(0));

  // One-morsel input through the driver.
  auto filtered = ParallelFilter(std::make_shared<const Table>(one),
                                 Ge(Col("k"), Lit(int64_t{0})), opts);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->num_rows(), 1);
}

TEST(ParallelExecTest, PlanBuilderUsesParallelOperators) {
  // The builder's join/aggregate are the morsel-parallel operators; EXPLAIN
  // makes that visible while keeping the serial label as a prefix.
  Table t = KeyedTable(71, 10, 3);
  auto plan = PlanBuilder::Scan(t)
                  .Join(PlanBuilder::Scan(t), {"k"}, {"k"})
                  .Aggregate({"k"}, {{AggOp::kCountStar, "", "n"}});
  const std::string explain = plan.Explain();
  EXPECT_NE(explain.find("[morsel]"), std::string::npos);
}

TEST(ParallelExecTest, ThreadBudgetResolutionOrder) {
  // ExecThreads(): innermost scoped override > env/hardware.
  const int ambient = ExecThreads();
  {
    ScopedExecThreads outer(3);
    EXPECT_EQ(ExecThreads(), 3);
    {
      ScopedExecThreads scoped(5);
      EXPECT_EQ(ExecThreads(), 5);
      {
        ScopedExecThreads inner(0);  // no-op scope keeps the outer override
        EXPECT_EQ(ExecThreads(), 5);
      }
    }
    EXPECT_EQ(ExecThreads(), 3);
  }
  EXPECT_EQ(ExecThreads(), ambient);
}

TEST(ParallelForTest, FirstErrorWinsAndSkipsRemaining) {
  Status st = ThreadPool::Default()->ParallelFor(
      0, 1000, /*grain=*/1,
      [&](std::size_t begin, std::size_t) -> Status {
        if (begin == 3) return Status::Internal("boom");
        if (begin == 7) return Status::InvalidArgument("later");
        return Status::OK();
      },
      /*max_threads=*/2);
  // A failing chunk's error surfaces; once the failure flag is up the
  // remaining chunks are skipped, never overwriting the first error.
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find(st.IsInternal() ? "boom" : "later"),
            std::string::npos);
}

TEST(ParallelForTest, PreCancelledTokenRunsNothing) {
  CancelToken token = CancelToken::Make();
  token.Cancel();
  ScopedCancelToken scope(token);
  std::atomic<int> executed{0};
  const Status st = ThreadPool::Default()->ParallelFor(
      0, 1000, /*grain=*/1,
      [&](std::size_t, std::size_t) -> Status {
        ++executed;
        return Status::OK();
      },
      4);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_EQ(executed.load(), 0);  // checked before the first grain
}

TEST(ParallelForTest, CancelMidRunStopsAtGrainBoundary) {
  CancelToken token = CancelToken::Make();
  ScopedCancelToken scope(token);
  std::atomic<int> executed{0};
  const Status st = ThreadPool::Default()->ParallelFor(
      0, 10000, /*grain=*/1,
      [&](std::size_t begin, std::size_t) -> Status {
        if (begin == 0) token.Cancel();
        ++executed;
        return Status::OK();
      },
      2);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  // Grains already in flight may finish; the bulk is skipped.
  EXPECT_LT(executed.load(), 10000);
}

TEST(ParallelForTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  ScopedCancelToken scope(CancelToken().WithDeadlineAfter(0.0));
  const Status st = ThreadPool::Default()->ParallelFor(
      0, 100, /*grain=*/10,
      [](std::size_t, std::size_t) -> Status { return Status::OK(); }, 2);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
}

TEST(ParallelForTest, VoidOverloadIgnoresAmbientCancellation) {
  // The exception-contract overload has no error channel, so it is not
  // cancellable: an ambient cancelled token must neither abort nor skip.
  CancelToken token = CancelToken::Make();
  token.Cancel();
  ScopedCancelToken scope(token);
  std::atomic<int> executed{0};
  ThreadPool::Default()->ParallelFor(100, [&](std::size_t) { ++executed; });
  EXPECT_EQ(executed.load(), 100);
}

TEST(ParallelForTest, ExceptionsBecomeStatus) {
  Status st = ThreadPool::Default()->ParallelFor(
      0, 8, /*grain=*/1,
      [](std::size_t begin, std::size_t) -> Status {
        if (begin == 5) throw std::runtime_error("kaput");
        return Status::OK();
      },
      4);
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.ToString().find("kaput"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sort-merge join (exec/merge_join.h): bit-identical to the hash joins on
// sorted inputs — duplicates, NULL keys, NaN keys, every join type, any
// thread count / morsel size, encoding off and forced — plus planner
// selection and the runtime hash fallback.
// ---------------------------------------------------------------------------

/// Random table with a dup-heavy INT64 key (~10% NULL), a low-cardinality
/// DOUBLE key (with NaN and NULL), and an INT64 payload.
Table MergeKeyedTable(uint64_t seed, int64_t rows, int64_t key_range) {
  Rng rng(seed);
  Table t(Schema({{"k", DataType::kInt64},
                  {"dk", DataType::kDouble},
                  {"v", DataType::kInt64}}));
  for (int64_t r = 0; r < rows; ++r) {
    const Value k = rng.Bernoulli(0.1)
                        ? Value::Null()
                        : Value(static_cast<int64_t>(
                              rng.Uniform(static_cast<uint64_t>(key_range))));
    Value dk;
    if (rng.Bernoulli(0.05)) {
      dk = Value::Null();
    } else if (rng.Bernoulli(0.1)) {
      dk = Value(std::numeric_limits<double>::quiet_NaN());
    } else {
      dk = Value(static_cast<double>(rng.Uniform(6)) / 2.0);
    }
    VX_CHECK_OK(t.AppendRow({k, dk, Value(rng.UniformRange(-100, 100))}));
  }
  return t;
}

const JoinType kAllJoinTypes[] = {JoinType::kInner, JoinType::kLeft,
                                  JoinType::kSemi, JoinType::kAnti};

TEST(MergeJoinTest, ParityWithHashJoinOnInt64Key) {
  const Table probe = SortTable(MergeKeyedTable(41, 700, 25), {{0, true}});
  const Table build = SortTable(MergeKeyedTable(42, 300, 25), {{0, true}});
  for (JoinType type : kAllJoinTypes) {
    auto expected = ParallelHashJoin(probe, build, {"k"}, {"k"}, type);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (int threads : kThreadSweep) {
      for (int64_t morsel : kMorselSweep) {
        ParallelOptions opts;
        opts.num_threads = threads;
        opts.morsel_rows = morsel;
        auto got = ParallelMergeJoin(probe, build, {"k"}, {"k"}, type, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(got->Equals(*expected))
            << JoinTypeName(type) << " threads=" << threads
            << " morsel=" << morsel;
      }
    }
  }
}

TEST(MergeJoinTest, ParityOnDoubleKeyWithNaN) {
  // NaN keys: equal to themselves under the CompareRows total order on
  // both paths (hash compares via CompareRows too), NULLs never match.
  const Table probe = SortTable(MergeKeyedTable(43, 400, 10), {{1, true}});
  const Table build = SortTable(MergeKeyedTable(44, 200, 10), {{1, true}});
  for (JoinType type : kAllJoinTypes) {
    auto expected = ParallelHashJoin(probe, build, {"dk"}, {"dk"}, type);
    ASSERT_TRUE(expected.ok());
    ParallelOptions opts;
    opts.num_threads = 8;
    opts.morsel_rows = 17;
    auto got = ParallelMergeJoin(probe, build, {"dk"}, {"dk"}, type, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->Equals(*expected)) << JoinTypeName(type);
  }
}

TEST(MergeJoinTest, ParityOnMultiColumnKey) {
  const Table probe =
      SortTable(MergeKeyedTable(45, 500, 6), {{0, true}, {2, true}});
  const Table build =
      SortTable(MergeKeyedTable(46, 250, 6), {{0, true}, {2, true}});
  for (JoinType type : kAllJoinTypes) {
    auto expected =
        ParallelHashJoin(probe, build, {"k", "v"}, {"k", "v"}, type);
    ASSERT_TRUE(expected.ok());
    ParallelOptions opts;
    opts.num_threads = 8;
    opts.morsel_rows = 13;
    auto got =
        ParallelMergeJoin(probe, build, {"k", "v"}, {"k", "v"}, type, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->Equals(*expected)) << JoinTypeName(type);
  }
}

TEST(MergeJoinTest, RleRunFastPathMatchesHash) {
  // Edge-table shape: dense duplicate keys, no NULLs, build key column
  // RLE-encoded — the run-at-a-time path joins whole runs without decode.
  Rng rng(47);
  Table probe(Schema({{"id", DataType::kInt64}, {"pv", DataType::kDouble}}));
  for (int64_t r = 0; r < 300; ++r) {
    VX_CHECK_OK(probe.AppendRow(
        {Value(static_cast<int64_t>(rng.Uniform(40))), Value(rng.NextDouble())}));
  }
  probe = SortTable(probe, {{0, true}});
  Table build(Schema({{"src", DataType::kInt64}, {"bv", DataType::kInt64}}));
  for (int64_t r = 0; r < 600; ++r) {
    VX_CHECK_OK(build.AppendRow(
        {Value(static_cast<int64_t>(rng.Uniform(40))),
         Value(rng.UniformRange(0, 9))}));
  }
  build = SortTable(build, {{0, true}});
  Table encoded_build = build;
  ASSERT_GT(encoded_build.EncodeColumns(EncodingMode::kForce), 0);
  ASSERT_NE(encoded_build.column(0).rle_runs(), nullptr);
  for (JoinType type : kAllJoinTypes) {
    auto expected = ParallelHashJoin(probe, build, {"id"}, {"src"}, type);
    ASSERT_TRUE(expected.ok());
    for (int threads : kThreadSweep) {
      ParallelOptions opts;
      opts.num_threads = threads;
      opts.morsel_rows = 19;
      auto got =
          ParallelMergeJoin(probe, encoded_build, {"id"}, {"src"}, type, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got->Equals(*expected))
          << JoinTypeName(type) << " threads=" << threads;
    }
  }
}

TEST(MergeJoinTest, EmptyInputs) {
  const Table some = SortTable(MergeKeyedTable(48, 50, 5), {{0, true}});
  Table empty(some.schema());
  for (JoinType type : kAllJoinTypes) {
    auto a = ParallelMergeJoin(empty, some, {"k"}, {"k"}, type);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->num_rows(), 0);
    auto b = ParallelMergeJoin(some, empty, {"k"}, {"k"}, type);
    auto expected = ParallelHashJoin(some, empty, {"k"}, {"k"}, type);
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(b->Equals(*expected)) << JoinTypeName(type);
  }
}

TEST(MergeJoinTest, PlannerPicksMergeOnlyWhenBothSidesSorted) {
  ScopedMergeJoin on(true);  // pin against a VERTEXICA_MERGE_JOIN=off env
  const Table sorted_a = SortTable(MergeKeyedTable(49, 100, 8), {{0, true}});
  const Table sorted_b = SortTable(MergeKeyedTable(50, 80, 8), {{0, true}});
  const Table unsorted = MergeKeyedTable(51, 80, 8);
  {
    auto plan = PlanBuilder::Scan(sorted_a)
                    .Join(PlanBuilder::Scan(sorted_b), {"k"}, {"k"});
    EXPECT_NE(plan.Explain().find("MergeJoin"), std::string::npos)
        << plan.Explain();
  }
  {
    auto plan = PlanBuilder::Scan(sorted_a)
                    .Join(PlanBuilder::Scan(unsorted), {"k"}, {"k"});
    EXPECT_EQ(plan.Explain().find("MergeJoin"), std::string::npos)
        << plan.Explain();
    EXPECT_NE(plan.Explain().find("HashJoin"), std::string::npos);
  }
  {
    // The ambient knob turns selection off wholesale.
    ScopedMergeJoin off(false);
    auto plan = PlanBuilder::Scan(sorted_a)
                    .Join(PlanBuilder::Scan(sorted_b), {"k"}, {"k"});
    EXPECT_EQ(plan.Explain().find("MergeJoin"), std::string::npos);
  }
  // Filter/Project/Rename propagate the order claim through the plan.
  {
    auto plan = PlanBuilder::Scan(sorted_a)
                    .Filter(Gt(Col("v"), Lit(int64_t{0})))
                    .Project({{"k", Col("k")}, {"v", Col("v")}})
                    .Join(PlanBuilder::Scan(sorted_b), {"k"}, {"k"});
    EXPECT_NE(plan.Explain().find("MergeJoin"), std::string::npos)
        << plan.Explain();
  }
}

TEST(MergeJoinTest, RuntimeFallsBackToHashWhenUnsorted) {
  // An op constructed directly over unsorted inputs (no metadata, data
  // out of order) must take the hash path and still return hash results.
  const Table probe = MergeKeyedTable(52, 200, 10);
  const Table build = MergeKeyedTable(53, 100, 10);
  auto expected = ParallelHashJoin(probe, build, {"k"}, {"k"}, JoinType::kLeft);
  ASSERT_TRUE(expected.ok());
  JoinPathStats stats;
  {
    ScopedJoinStatsCollector collector(&stats);
    ParallelMergeJoinOp op(std::make_unique<TableScan>(probe),
                           std::make_unique<TableScan>(build), {"k"}, {"k"},
                           JoinType::kLeft);
    auto got = Collect(&op);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->Equals(*expected));
  }
  EXPECT_EQ(stats.merge_joins, 0);
  EXPECT_EQ(stats.hash_joins, 1);
  EXPECT_EQ(stats.hash_rows, expected->num_rows());
}

TEST(MergeJoinTest, StatsCollectorCountsMergePath) {
  const Table probe = SortTable(MergeKeyedTable(54, 200, 10), {{0, true}});
  const Table build = SortTable(MergeKeyedTable(55, 100, 10), {{0, true}});
  JoinPathStats stats;
  {
    ScopedJoinStatsCollector collector(&stats);
    auto got = ParallelMergeJoin(probe, build, {"k"}, {"k"}, JoinType::kInner);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(stats.merge_rows, got->num_rows());
  }
  EXPECT_EQ(stats.merge_joins, 1);
  EXPECT_EQ(stats.hash_joins, 0);
  EXPECT_EQ(AmbientJoinStats(), nullptr);  // scope restored
}

TEST(MergeJoinTest, OutputCarriesProbeOrder) {
  // The join's output declares the probe order, so a second join can
  // merge again — the superstep triple-join chain.
  const Table probe = SortTable(MergeKeyedTable(56, 200, 10), {{0, true}});
  const Table build = SortTable(MergeKeyedTable(57, 100, 10), {{0, true}});
  auto out = ParallelMergeJoin(probe, build, {"k"}, {"k"}, JoinType::kLeft);
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out->sort_order().empty());
  EXPECT_EQ(out->sort_order()[0].column, 0);
  EXPECT_TRUE(out->sort_order()[0].ascending);
  ASSERT_TRUE(TableSortedOnKeys(*out, {0}));
}

// ---------------------------------------------------------------------------
// Fused selection-vector path (exec/vectorized.h): the `vectorized` knob is
// a pure physical-plan swap, so every random σ/π/join/agg plan — NULLs,
// NaN, strings, encoded columns — must produce *byte-identical* tables with
// the knob on and off, at 1 and 8 threads.
// ---------------------------------------------------------------------------

/// Random wide table: k INT64 (runs, RLE-friendly), v INT64 (~10% NULL),
/// x DOUBLE (~10% NULL, ~5% NaN), s STRING (low cardinality,
/// dict-friendly), b BOOL (~10% NULL).
Table FuzzTable(uint64_t seed, int64_t rows) {
  Rng rng(seed);
  const char* cities[] = {"bos", "nyc", "sfo", "chi"};
  Table t(Schema({{"k", DataType::kInt64},
                  {"v", DataType::kInt64},
                  {"x", DataType::kDouble},
                  {"s", DataType::kString},
                  {"b", DataType::kBool}}));
  int64_t run_key = 0;
  for (int64_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.02)) run_key = rng.UniformRange(0, 20);
    const double x = rng.Bernoulli(0.05)
                         ? std::numeric_limits<double>::quiet_NaN()
                         : rng.NextDouble() * 200 - 100;
    VX_CHECK_OK(t.AppendRow(
        {Value(run_key),
         rng.Bernoulli(0.1) ? Value::Null()
                            : Value(rng.UniformRange(-100, 100)),
         rng.Bernoulli(0.1) ? Value::Null() : Value(x),
         Value(std::string(cities[rng.Uniform(4)])),
         rng.Bernoulli(0.1) ? Value::Null() : Value(rng.Bernoulli(0.5))}));
  }
  return t;
}

/// A random predicate: 1-3 pushable conjuncts over the FuzzTable columns,
/// plus (with probability ~1/4) a computed conjunct that forces the
/// interpreter fallback — the fallback must agree with itself too.
ExprPtr FuzzPredicate(Rng* rng) {
  auto conjunct = [&]() -> ExprPtr {
    switch (rng->Uniform(5)) {
      case 0:
        return Ge(Col("k"), Lit(rng->UniformRange(0, 20)));
      case 1:
        return Lt(Col("v"), Lit(rng->UniformRange(-50, 50)));
      case 2:
        return Gt(Col("x"), Lit(rng->NextDouble() * 100 - 50));
      case 3:
        return Eq(Col("s"), Lit(std::string(rng->Bernoulli(0.5) ? "bos"
                                                                : "nyc")));
      default:
        return Eq(Col("b"), Lit(rng->Bernoulli(0.5)));
    }
  };
  ExprPtr pred = conjunct();
  const uint64_t extra = rng->Uniform(3);
  for (uint64_t i = 0; i < extra; ++i) pred = And(std::move(pred), conjunct());
  if (rng->Bernoulli(0.25)) {
    // Not pushable: exercises the residual/interpreter path under both
    // knob settings.
    pred = And(std::move(pred),
               Ge(Mul(Col("v"), Lit(int64_t{1})), Lit(int64_t{-200})));
  }
  return pred;
}

/// Random projection: column refs in random order, a literal output, and
/// (with probability ~1/4) a computed column that forces the fallback.
std::vector<ProjectionSpec> FuzzProjection(Rng* rng) {
  std::vector<ProjectionSpec> proj;
  const char* cols[] = {"k", "v", "x", "s", "b"};
  for (const char* c : cols) {
    if (rng->Bernoulli(0.7)) proj.push_back({c, Col(c)});
  }
  if (proj.empty()) proj.push_back({"k", Col("k")});
  if (rng->Bernoulli(0.5)) proj.push_back({"tag", Lit(int64_t{7})});
  if (rng->Bernoulli(0.25)) {
    proj.push_back({"v2", Mul(Col("v"), Lit(int64_t{2}))});
  }
  return proj;
}

/// Runs `fn` under the given knob settings and returns its table.
template <typename Fn>
Table RunWithKnobs(bool vectorized, int threads, const Fn& fn) {
  ScopedVectorized vec(vectorized);
  ScopedExecThreads scoped_threads(threads);
  auto result = fn();
  VX_CHECK_OK(result.status());
  return std::move(result).ValueOrDie();
}

TEST(VectorizedTest, RandomSigmaPiPlansBitIdenticalOnVsOff) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 977);
    Table plain = FuzzTable(seed, 700);
    Table encoded = plain;
    encoded.EncodeColumns(EncodingMode::kForce);
    const ExprPtr pred = FuzzPredicate(&rng);
    const auto proj = FuzzProjection(&rng);
    for (const Table& t : {plain, encoded}) {
      const auto shared = std::make_shared<const Table>(t);
      ParallelOptions opts;
      opts.morsel_rows = 97;  // force many morsels
      auto run = [&] {
        return ParallelFilterProject(shared, pred, proj, opts);
      };
      const Table reference = RunWithKnobs(false, 1, run);
      for (int threads : {1, 8}) {
        for (bool vectorized : {false, true}) {
          const Table out = RunWithKnobs(vectorized, threads, run);
          EXPECT_TRUE(out.Equals(reference))
              << "seed=" << seed << " vectorized=" << vectorized
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(VectorizedTest, FilterAndProjectKernelsMatchAcrossKnob) {
  for (uint64_t seed = 100; seed < 106; ++seed) {
    Rng rng(seed);
    Table t = FuzzTable(seed, 500);
    if (seed % 2 == 0) t.EncodeColumns(EncodingMode::kForce);
    const auto shared = std::make_shared<const Table>(t);
    const ExprPtr pred = FuzzPredicate(&rng);
    const auto proj = FuzzProjection(&rng);
    ParallelOptions opts;
    opts.morsel_rows = 61;
    const Table filter_ref =
        RunWithKnobs(false, 1, [&] { return ParallelFilter(shared, pred, opts); });
    const Table project_ref =
        RunWithKnobs(false, 1, [&] { return ParallelProject(shared, proj, opts); });
    for (int threads : {1, 8}) {
      EXPECT_TRUE(RunWithKnobs(true, threads, [&] {
                    return ParallelFilter(shared, pred, opts);
                  }).Equals(filter_ref))
          << "seed=" << seed << " threads=" << threads;
      EXPECT_TRUE(RunWithKnobs(true, threads, [&] {
                    return ParallelProject(shared, proj, opts);
                  }).Equals(project_ref))
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(VectorizedTest, JoinAndAggregatePlansBitIdenticalOnVsOff) {
  // The batched hash kernel must hash byte-identically to JoinKeyHash, and
  // aggregation downstream of fused pipelines must see identical input.
  const Table probe = FuzzTable(201, 600);
  Table build = FuzzTable(202, 250);
  build.EncodeColumns(EncodingMode::kForce);
  const std::vector<AggSpec> aggs = {{AggOp::kCountStar, "", "n"},
                                     {AggOp::kSum, "v", "sv"}};
  ParallelOptions opts;
  opts.morsel_rows = 83;
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeft, JoinType::kSemi, JoinType::kAnti}) {
    const Table join_ref = RunWithKnobs(false, 1, [&] {
      return ParallelHashJoin(probe, build, {"k", "s"}, {"k", "s"}, type,
                              opts);
    });
    for (int threads : {1, 8}) {
      for (bool vectorized : {false, true}) {
        EXPECT_TRUE(RunWithKnobs(vectorized, threads, [&] {
                      return ParallelHashJoin(probe, build, {"k", "s"},
                                              {"k", "s"}, type, opts);
                    }).Equals(join_ref))
            << JoinTypeName(type) << " vectorized=" << vectorized
            << " threads=" << threads;
      }
    }
  }
  const Table agg_ref = RunWithKnobs(false, 1, [&] {
    return ParallelHashAggregate(probe, {"k"}, aggs, opts);
  });
  for (bool vectorized : {false, true}) {
    EXPECT_TRUE(RunWithKnobs(vectorized, 8, [&] {
                  return ParallelHashAggregate(probe, {"k"}, aggs, opts);
                }).Equals(agg_ref))
        << "vectorized=" << vectorized;
  }
}

TEST(VectorizedTest, KnobResolutionOrder) {
  // Same contract as every knob: the innermost scoped override wins, and
  // leaving a scope restores the value it replaced.
  const bool ambient = VectorizedEnabled();
  {
    ScopedVectorized outer(false);
    EXPECT_FALSE(VectorizedEnabled());
    {
      ScopedVectorized on(true);
      EXPECT_TRUE(VectorizedEnabled());
      {
        ScopedVectorized off(false);
        EXPECT_FALSE(VectorizedEnabled());
      }
      EXPECT_TRUE(VectorizedEnabled());
    }
    EXPECT_FALSE(VectorizedEnabled());
  }
  EXPECT_EQ(VectorizedEnabled(), ambient);
}

TEST(VectorizedTest, ExecKnobsCaptureAndInstallRoundTrip) {
  KernelStats block;
  ScopedVectorized off(false);
  ScopedKernelStats stats(&block);
  const ExecKnobs captured = ExecKnobs::Capture();
  EXPECT_FALSE(captured.vectorized);
  EXPECT_EQ(captured.kernel_stats, &block);
  Status st = ThreadPool::Default()->ParallelFor(
      0, 1, 1,
      [&](std::size_t, std::size_t) -> Status {
        ScopedExecKnobs install(captured);
        if (VectorizedEnabled()) return Status::Internal("knob not installed");
        if (AmbientKernelStats() != &block) {
          return Status::Internal("collector not installed");
        }
        return Status::OK();
      },
      2);
  EXPECT_TRUE(st.ok()) << st.ToString();

  // Every knob of the table, the same way: nested scopes win innermost-
  // first, an integer knob's 0 is a no-op scope, leaving a scope restores
  // the value it replaced, and a captured value reinstalls on a fresh
  // thread.
  struct KnobCase {
    Knob knob;
    int outer;
    int inner;
  };
  const KnobCase cases[] = {
      {Knob::kThreads, 3, 5},
      {Knob::kShards, 2, 7},
      {Knob::kEncoding, static_cast<int>(EncodingMode::kForce),
       static_cast<int>(EncodingMode::kOff)},
      {Knob::kMergeJoin, 0, 1},
      {Knob::kFrontier, static_cast<int>(FrontierMode::kOn),
       static_cast<int>(FrontierMode::kOff)},
      {Knob::kVectorized, 1, 0},
  };
  for (const KnobCase& c : cases) {
    const KnobSpec& spec = KnobSpecOf(c.knob);
    SCOPED_TRACE(spec.name);
    const int ambient = AmbientKnob(c.knob);
    {
      ScopedKnob outer(c.knob, c.outer);
      EXPECT_EQ(AmbientKnob(c.knob), c.outer);
      {
        ScopedKnob inner(c.knob, c.inner);
        EXPECT_EQ(AmbientKnob(c.knob), c.inner);
        const ExecKnobs knobs = ExecKnobs::Capture();
        EXPECT_EQ(spec.get(knobs), c.inner);
        int seen = -1;
        std::thread fresh([&]() {
          ScopedExecKnobs install(knobs);
          seen = AmbientKnob(c.knob);
        });
        fresh.join();
        EXPECT_EQ(seen, c.inner);
      }
      if (spec.is_integer()) {
        ScopedKnob noop(c.knob, 0);
        EXPECT_EQ(AmbientKnob(c.knob), c.outer);
      }
      EXPECT_EQ(AmbientKnob(c.knob), c.outer);
    }
    EXPECT_EQ(AmbientKnob(c.knob), ambient);
  }
}

TEST(KernelStatsTest, CountersAreDeterministicAcrossThreadsAndPerScope) {
  const Table t = FuzzTable(301, 2000);
  const auto shared = std::make_shared<const Table>(t);
  const ExprPtr pred = And(Ge(Col("k"), Lit(int64_t{3})),
                           Lt(Col("v"), Lit(int64_t{40})));
  const std::vector<ProjectionSpec> proj = {{"k", Col("k")}, {"v", Col("v")}};
  ParallelOptions opts;
  opts.morsel_rows = 128;
  auto measure = [&](bool vectorized, int threads) {
    KernelStats block;
    ScopedKernelStats scope(&block);
    ScopedVectorized vec(vectorized);
    ScopedExecThreads scoped_threads(threads);
    VX_CHECK_OK(ParallelFilterProject(shared, pred, proj, opts).status());
    return Snapshot(block);
  };
  const KernelStatsSnapshot fused1 = measure(true, 1);
  const KernelStatsSnapshot fused8 = measure(true, 8);
  const KernelStatsSnapshot legacy1 = measure(false, 1);
  const KernelStatsSnapshot legacy8 = measure(false, 8);
  // Morsel boundaries don't depend on threads, so neither do the counters.
  EXPECT_EQ(fused1.bytes_materialized, fused8.bytes_materialized);
  EXPECT_EQ(fused1.fused_batches, fused8.fused_batches);
  EXPECT_EQ(legacy1.bytes_materialized, legacy8.bytes_materialized);
  EXPECT_EQ(legacy1.legacy_batches, legacy8.legacy_batches);
  // The fused path exists to materialize less.
  EXPECT_GT(fused1.fused_batches, 0);
  EXPECT_EQ(fused1.legacy_batches, 0);
  EXPECT_GT(legacy1.legacy_batches, 0);
  EXPECT_LT(fused1.bytes_materialized, legacy1.bytes_materialized);
  // Per-scope isolation: a fresh block starts at zero even though another
  // run just counted (nothing is process-wide).
  KernelStats fresh;
  EXPECT_EQ(Snapshot(fresh).bytes_materialized, 0);
  // And with no collector installed, counting is off entirely.
  EXPECT_EQ(AmbientKernelStats(), nullptr);
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  // A pool task fanning out on the same pool must complete (the caller
  // participates in draining chunks).
  std::atomic<int> total{0};
  Status st = ThreadPool::Default()->ParallelFor(
      0, 4, 1,
      [&](std::size_t, std::size_t) {
        return ThreadPool::Default()->ParallelFor(
            0, 4, 1,
            [&](std::size_t, std::size_t) {
              total.fetch_add(1);
              return Status::OK();
            });
      },
      4);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(total.load(), 16);
}

}  // namespace
}  // namespace vertexica
