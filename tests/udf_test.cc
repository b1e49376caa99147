// Unit tests for the transform-UDF framework and stored procedures.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>

#include "common/random.h"
#include "exec/exec_knobs.h"
#include "storage/partition.h"
#include "storage/sort.h"
#include "udf/stored_procedure.h"
#include "udf/transform.h"

namespace vertexica {
namespace {

/// Sums the "v" column per distinct key within its partition, emitting
/// (key, sum) rows — a miniature of what the Vertexica worker does.
class PerKeySumUdf : public TransformUdf {
 public:
  const Schema& output_schema() const override {
    static const Schema kSchema({{"key", DataType::kInt64},
                                 {"sum", DataType::kInt64}});
    return kSchema;
  }

  Status ProcessPartition(
      const Table& partition,
      const std::function<Status(Table)>& emit) override {
    VX_ASSIGN_OR_RETURN(int key_col, partition.ColumnIndex("key"));
    VX_ASSIGN_OR_RETURN(int val_col, partition.ColumnIndex("v"));
    const auto& keys = partition.column(key_col).ints();
    const auto& vals = partition.column(val_col).ints();
    Table out(output_schema());
    int64_t i = 0;
    const int64_t n = partition.num_rows();
    while (i < n) {
      // Partition is sorted by key: consume one group.
      const int64_t key = keys[static_cast<size_t>(i)];
      int64_t sum = 0;
      while (i < n && keys[static_cast<size_t>(i)] == key) {
        sum += vals[static_cast<size_t>(i)];
        ++i;
      }
      VX_RETURN_NOT_OK(out.AppendRow({Value(key), Value(sum)}));
    }
    return emit(std::move(out));
  }
};

Table KeyValueTable(int64_t num_keys, int64_t rows_per_key) {
  Table t(Schema({{"key", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (int64_t r = 0; r < rows_per_key; ++r) {
    for (int64_t k = 0; k < num_keys; ++k) {
      VX_CHECK_OK(t.AppendRow({Value(k), Value(k + r)}));
    }
  }
  return t;
}

TEST(TransformTest, PartitionedSumMatchesExpected) {
  Table in = KeyValueTable(20, 5);
  TransformOptions opts;
  opts.num_partitions = 4;
  opts.num_workers = 4;
  opts.sort_columns = {0};
  auto result =
      ApplyTransform(in, 0, [] { return std::make_unique<PerKeySumUdf>(); },
                     opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 20);
  // key k appears 5 times with values k, k+1, ..., k+4 => 5k + 10.
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    const int64_t k = result->column(0).GetInt64(i);
    EXPECT_EQ(result->column(1).GetInt64(i), 5 * k + 10);
  }
}

TEST(TransformTest, EachKeyProcessedExactlyOnce) {
  Table in = KeyValueTable(100, 1);
  TransformOptions opts;
  opts.num_partitions = 7;
  opts.sort_columns = {0};
  auto result =
      ApplyTransform(in, 0, [] { return std::make_unique<PerKeySumUdf>(); },
                     opts);
  ASSERT_TRUE(result.ok());
  std::set<int64_t> keys;
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    keys.insert(result->column(0).GetInt64(i));
  }
  EXPECT_EQ(keys.size(), 100u);
}

TEST(TransformTest, EmptyInputProducesEmptyOutput) {
  Table in(Schema({{"key", DataType::kInt64}, {"v", DataType::kInt64}}));
  auto result = ApplyTransform(
      in, 0, [] { return std::make_unique<PerKeySumUdf>(); }, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0);
  EXPECT_TRUE(result->schema().HasField("sum"));
}

TEST(TransformTest, BadPartitionColumnFails) {
  Table in = KeyValueTable(2, 1);
  auto result = ApplyTransform(
      in, 9, [] { return std::make_unique<PerKeySumUdf>(); }, {});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(TransformTest, NonInt64PartitionColumnFails) {
  // A DOUBLE key is a caller error: InvalidArgument, not an abort.
  Table in(Schema({{"key", DataType::kDouble}, {"v", DataType::kInt64}}));
  VX_CHECK_OK(in.AppendRow({Value(1.5), Value(int64_t{2})}));
  auto result = ApplyTransform(
      in, 0, [] { return std::make_unique<PerKeySumUdf>(); }, {});
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(TransformTest, OutOfRangeSortColumnFails) {
  Table in = KeyValueTable(4, 2);
  for (const int bad : {2, -1}) {
    TransformOptions opts;
    opts.sort_columns = {0, bad};
    auto result = ApplyTransform(
        in, 0, [] { return std::make_unique<PerKeySumUdf>(); }, opts);
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << bad << ": " << result.status().ToString();
  }
}

/// UDF that records how many instances were created (lifecycle check).
class CountingUdf : public TransformUdf {
 public:
  static std::atomic<int> instances;
  CountingUdf() { instances++; }
  const Schema& output_schema() const override {
    static const Schema kSchema({{"n", DataType::kInt64}});
    return kSchema;
  }
  Status ProcessPartition(
      const Table& partition,
      const std::function<Status(Table)>& emit) override {
    Table out(output_schema());
    VX_RETURN_NOT_OK(out.AppendRow({Value(partition.num_rows())}));
    return emit(std::move(out));
  }
};
std::atomic<int> CountingUdf::instances{0};

/// Distinct PartitionOf buckets over keys [0, num_keys).
int DistinctBuckets(int64_t num_keys, int num_partitions) {
  std::set<int> buckets;
  for (int64_t k = 0; k < num_keys; ++k) {
    buckets.insert(PartitionOf(k, num_partitions));
  }
  return static_cast<int>(buckets.size());
}

TEST(TransformTest, OneInstancePerNonEmptyPartition) {
  for (const int64_t num_keys : {64, 3}) {
    SCOPED_TRACE(num_keys);
    Table in = KeyValueTable(num_keys, 1);
    CountingUdf::instances = 0;
    TransformOptions opts;
    opts.num_partitions = 8;
    auto result = ApplyTransform(
        in, 0, [] { return std::make_unique<CountingUdf>(); }, opts);
    ASSERT_TRUE(result.ok());
    // One throwaway instance for schema discovery + exactly one per
    // non-empty partition; empty partitions never see an instance.
    EXPECT_EQ(CountingUdf::instances.load(),
              1 + DistinctBuckets(num_keys, opts.num_partitions));
    EXPECT_EQ(result->num_rows(),
              DistinctBuckets(num_keys, opts.num_partitions));
    int64_t total = 0;
    for (int64_t i = 0; i < result->num_rows(); ++i) {
      total += result->column(0).GetInt64(i);
    }
    EXPECT_EQ(total, num_keys);
  }
}

TEST(TransformTest, ManyPartitionsFewKeysMatchesPerKeyReference) {
  // 4,096 partitions over 3 keys: only the occupied partitions are
  // gathered and run, and the per-key sums match the reference.
  Table in = KeyValueTable(3, 5);
  TransformOptions opts;
  opts.num_partitions = 4096;
  opts.sort_columns = {0};
  CountingUdf::instances = 0;
  auto counted = ApplyTransform(
      in, 0, [] { return std::make_unique<CountingUdf>(); }, opts);
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  EXPECT_EQ(CountingUdf::instances.load(),
            1 + DistinctBuckets(3, opts.num_partitions));

  auto result = ApplyTransform(
      in, 0, [] { return std::make_unique<PerKeySumUdf>(); }, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3);
  std::set<int64_t> keys;
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    const int64_t k = result->column(0).GetInt64(i);
    keys.insert(k);
    EXPECT_EQ(result->column(1).GetInt64(i), 5 * k + 10);  // k + ... + k+4
  }
  EXPECT_EQ(keys, (std::set<int64_t>{0, 1, 2}));
}

/// Emits its (sorted) partition unchanged, so ApplyTransform's output is
/// exactly the concatenation of the partitions the UDF saw.
class EchoUdf : public TransformUdf {
 public:
  explicit EchoUdf(Schema schema) : schema_(std::move(schema)) {}
  const Schema& output_schema() const override { return schema_; }
  Status ProcessPartition(
      const Table& partition,
      const std::function<Status(Table)>& emit) override {
    return emit(partition);
  }

 private:
  Schema schema_;
};

/// Seeded (key, v, w) rows: keys drawn from [0, distinct) in runs of up to
/// four equal keys, a `null_rate` share of them NULL.
Table RandomKeyedTable(uint64_t seed, int64_t rows, int64_t distinct,
                       double null_rate = 0.125) {
  Rng rng(seed);
  Table t(Schema({{"key", DataType::kInt64},
                  {"v", DataType::kInt64},
                  {"w", DataType::kDouble}}));
  int64_t key = 0;
  for (int64_t i = 0; i < rows; ++i) {
    if (i == 0 || rng.Bernoulli(0.3)) {
      key = rng.UniformRange(0, distinct - 1);
    }
    const Value k = rng.Bernoulli(null_rate) ? Value::Null() : Value(key);
    VX_CHECK_OK(t.AppendRow({k, Value(i), Value(rng.NextDouble())}));
  }
  return t;
}

/// The pre-scatter-plan formulation: every partition materialized, each
/// sorted, concatenated in partition order.
Table ReferenceTransform(const Table& in, int num_partitions,
                         const std::vector<SortKey>& keys) {
  Table out(in.schema());
  for (const Table& part : HashPartition(in, 0, num_partitions)) {
    VX_CHECK_OK(out.Append(keys.empty() ? part : SortTable(part, keys)));
  }
  return out;
}

TEST(TransformTest, MatchesPartitionSortConcatReference) {
  for (const uint64_t seed : {1u, 7u, 4242u}) {
    for (const bool rle_key : {false, true}) {
      for (const int threads : {1, 8}) {
        for (const int num_partitions : {1, 5, 64}) {
          for (const bool sorted : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " rle " << rle_key
                         << " threads " << threads << " partitions "
                         << num_partitions << " sorted " << sorted);
            Table in = RandomKeyedTable(seed, 500, seed == 7u ? 3 : 60);
            if (rle_key) {
              ASSERT_TRUE(in.mutable_column(0)->Encode(EncodingMode::kForce));
              ASSERT_TRUE(in.column(0).rle_runs() != nullptr);
            }
            std::vector<SortKey> keys;
            if (sorted) keys = {{0, true}};
            const Table expect = ReferenceTransform(in, num_partitions, keys);

            ScopedExecThreads scoped(threads);
            TransformOptions opts;
            opts.num_partitions = num_partitions;
            opts.num_workers = threads;
            if (sorted) opts.sort_columns = {0};
            const Schema schema = in.schema();
            auto got = ApplyTransform(
                in, 0, [&schema] { return std::make_unique<EchoUdf>(schema); },
                opts);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_TRUE(got->Equals(expect));
            // Bit-level check of the payload (Equals compares values).
            const auto& gw = got->column(2).doubles();
            const auto& ew = expect.column(2).doubles();
            ASSERT_EQ(gw.size(), ew.size());
            EXPECT_EQ(std::memcmp(gw.data(), ew.data(),
                                  gw.size() * sizeof(double)),
                      0);
          }
        }
      }
    }
  }
}

/// Seeded keyed rows for one side of a resident merge, RLE-keyed on
/// request.
Table MergeSide(uint64_t seed, int64_t rows, int64_t distinct,
                double null_rate, bool rle_key) {
  Table t = RandomKeyedTable(seed, rows, distinct, null_rate);
  if (rle_key && rows > 0) {
    VX_CHECK(t.mutable_column(0)->Encode(EncodingMode::kForce));
  }
  return t;
}

/// The rows of `resident` whose key CompareRows-equals some key of `input`,
/// in their order: what a keyed resident merge hands to UDF instances.
Table MatchedResidentRows(const Table& input, const Table& resident) {
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < resident.num_rows(); ++r) {
    for (int64_t i = 0; i < input.num_rows(); ++i) {
      if (resident.column(0).CompareRows(r, input.column(0), i) == 0) {
        rows.push_back(r);
        break;
      }
    }
  }
  return resident.Take(rows);
}

TEST(TransformTest, ResidentMergeMatchesConcatenatedReference) {
  struct Shape {
    const char* name;
    int64_t input_rows, input_keys, resident_rows, resident_keys;
  };
  // Few keys on one side leave most of 64 partitions filled by the other
  // side only; resident rows with no input key are never handed out.
  const Shape shapes[] = {{"both", 300, 60, 500, 60},
                          {"empty input", 0, 1, 500, 60},
                          {"empty resident", 300, 60, 0, 1},
                          {"few input keys", 300, 3, 500, 60},
                          {"few resident keys", 300, 60, 500, 3}};
  const std::vector<SortKey> keys = {{0, true}};
  for (const uint64_t seed : {1u, 4242u}) {
    for (const double null_rate : {0.0, 0.125}) {
      for (const bool rle_key : {false, true}) {
        for (const Shape& shape : shapes) {
          const Table in = MergeSide(seed, shape.input_rows, shape.input_keys,
                                     null_rate, rle_key);
          const Table res_src =
              MergeSide(seed + 1, shape.resident_rows, shape.resident_keys,
                        null_rate, rle_key);
          const Table matched = MatchedResidentRows(in, res_src);
          Table all = in;
          ASSERT_TRUE(all.Append(matched).ok());
          for (const int threads : {1, 8}) {
            for (const int num_partitions : {1, 5, 64}) {
              SCOPED_TRACE(testing::Message()
                           << "seed " << seed << " nulls " << null_rate
                           << " rle " << rle_key << " threads " << threads
                           << " partitions " << num_partitions << " "
                           << shape.name);
              const Table expect =
                  ReferenceTransform(all, num_partitions, keys);

              ScopedExecThreads scoped(threads);
              TransformOptions opts;
              opts.num_partitions = num_partitions;
              opts.num_workers = threads;
              opts.sort_columns = {0};
              auto resident = BuildResidentPartitions(res_src, 0, opts);
              ASSERT_TRUE(resident.ok()) << resident.status().ToString();
              ASSERT_TRUE(CheckResidentPartitions(*resident).ok());
              ASSERT_EQ(resident->rows.num_rows(), res_src.num_rows());
              const Schema schema = in.schema();
              int64_t merged = -1;
              auto got = ApplyTransform(
                  in, 0,
                  [&schema] { return std::make_unique<EchoUdf>(schema); },
                  opts, &*resident, &merged);
              ASSERT_TRUE(got.ok()) << got.status().ToString();
              EXPECT_EQ(merged, matched.num_rows());
              if (shape.input_rows == 0) {
                EXPECT_EQ(got->num_rows(), 0);
              }
              ASSERT_TRUE(got->Equals(expect));
              const auto& gv = got->column(1).ints();
              const auto& ev = expect.column(1).ints();
              ASSERT_EQ(gv, ev);  // row identity, ties included
              const auto& gw = got->column(2).doubles();
              const auto& ew = expect.column(2).doubles();
              ASSERT_EQ(gw.size(), ew.size());
              if (!gw.empty()) {  // memcmp wants non-null pointers
                EXPECT_EQ(std::memcmp(gw.data(), ew.data(),
                                      gw.size() * sizeof(double)),
                          0);
              }
            }
          }
        }
      }
    }
  }
}

TEST(TransformTest, ResidentSectionIsKeyedOnThePartitionColumn) {
  // A resident section is sorted and merged on its partition column alone;
  // any other sort columns are rejected when it is built and when it is
  // merged.
  const Table in = RandomKeyedTable(3, 200, 20);
  const Schema schema = in.schema();
  const auto echo = [&schema] { return std::make_unique<EchoUdf>(schema); };
  TransformOptions opts;
  opts.num_partitions = 5;
  opts.sort_columns = {0};
  auto good = BuildResidentPartitions(RandomKeyedTable(4, 300, 20), 0, opts);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  const std::vector<std::vector<int>> others = {{}, {1}, {0, 1}, {1, 0}};
  for (const std::vector<int>& sort_columns : others) {
    SCOPED_TRACE(testing::Message() << sort_columns.size() << " columns");
    TransformOptions other = opts;
    other.sort_columns = sort_columns;
    EXPECT_TRUE(BuildResidentPartitions(in, 0, other)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(ApplyTransform(in, 0, echo, other, &*good)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(TransformTest, MismatchedResidentSectionFails) {
  const Table in = RandomKeyedTable(3, 200, 20);
  const Schema schema = in.schema();
  const auto echo = [&schema] { return std::make_unique<EchoUdf>(schema); };
  TransformOptions opts;
  opts.num_partitions = 5;
  opts.sort_columns = {0};
  auto good = BuildResidentPartitions(RandomKeyedTable(4, 300, 20), 0, opts);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(ApplyTransform(in, 0, echo, opts, &*good).ok());

  // Another schema: the section lacks the `w` column.
  auto narrow = BuildResidentPartitions(
      RandomKeyedTable(4, 300, 20).SelectColumns({0, 1}), 0, opts);
  ASSERT_TRUE(narrow.ok());
  EXPECT_TRUE(ApplyTransform(in, 0, echo, opts, &*narrow)
                  .status()
                  .IsInvalidArgument());

  // Built for another partition count.
  TransformOptions other = opts;
  other.num_partitions = 64;
  EXPECT_TRUE(ApplyTransform(in, 0, echo, other, &*good)
                  .status()
                  .IsInvalidArgument());

  // Ranges that do not ascend from 0 to the row count.
  for (int corruption = 0; corruption < 4; ++corruption) {
    ResidentPartitions bad = *good;
    switch (corruption) {
      case 0: bad.offsets.clear(); break;
      case 1: bad.offsets.pop_back(); break;
      case 2: bad.offsets.back() -= 1; break;
      case 3: std::swap(bad.offsets[1], bad.offsets[2]); break;
    }
    if (corruption == 3 && bad.offsets[1] == bad.offsets[2]) continue;
    EXPECT_TRUE(
        ApplyTransform(in, 0, echo, opts, &bad).status().IsInvalidArgument())
        << "corruption " << corruption;
  }
}

TEST(TransformTest, ResidentAuditCatchesBadLayouts) {
  TransformOptions opts;
  opts.num_partitions = 5;
  opts.sort_columns = {0};
  auto good = BuildResidentPartitions(RandomKeyedTable(5, 400, 40, 0.0), 0,
                                      opts);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(CheckResidentPartitions(*good).ok());
  const std::vector<int64_t>& off = good->offsets;
  int p = 0;
  while (off[static_cast<size_t>(p) + 1] - off[static_cast<size_t>(p)] < 2) {
    ++p;
  }
  const int64_t first = off[static_cast<size_t>(p)];
  const int64_t last = off[static_cast<size_t>(p) + 1] - 1;
  const auto& ids = good->rows.column(0).ints();
  ASSERT_LT(ids[static_cast<size_t>(first)], ids[static_cast<size_t>(last)]);

  {  // A row counted into the neighbouring range.
    ResidentPartitions bad = *good;
    bad.offsets[static_cast<size_t>(p) + 1] -= 1;
    EXPECT_FALSE(CheckResidentPartitions(bad).ok());
  }
  {  // A key, still in key order, that hashes to another partition.
    ResidentPartitions bad = *good;
    auto& keys = *bad.rows.mutable_column(0)->mutable_ints();
    int64_t k = keys[static_cast<size_t>(last)];
    while (PartitionOf(k, opts.num_partitions) == p) ++k;
    keys[static_cast<size_t>(last)] = k;
    EXPECT_FALSE(CheckResidentPartitions(bad).ok());
  }
  {  // A range out of key order (same keys, same partition).
    ResidentPartitions bad = *good;
    auto& keys = *bad.rows.mutable_column(0)->mutable_ints();
    std::swap(keys[static_cast<size_t>(first)],
              keys[static_cast<size_t>(last)]);
    EXPECT_FALSE(CheckResidentPartitions(bad).ok());
  }
  {  // Ranges that stop short of the last row.
    ResidentPartitions bad = *good;
    bad.offsets.back() -= 1;
    EXPECT_FALSE(CheckResidentPartitions(bad).ok());
  }
}

/// UDF returning an error: must propagate.
class FailingUdf : public TransformUdf {
 public:
  const Schema& output_schema() const override {
    static const Schema kSchema({{"n", DataType::kInt64}});
    return kSchema;
  }
  Status ProcessPartition(const Table&,
                          const std::function<Status(Table)>&) override {
    return Status::Internal("boom");
  }
};

TEST(TransformTest, UdfErrorPropagates) {
  Table in = KeyValueTable(10, 1);
  auto result = ApplyTransform(
      in, 0, [] { return std::make_unique<FailingUdf>(); }, {});
  EXPECT_TRUE(result.status().IsInternal());
}

TEST(ProcedureTest, RegisterAndCall) {
  ProcedureRegistry registry;
  Catalog catalog;
  VX_CHECK_OK(catalog.CreateTable(
      "counter", Table(Schema({{"v", DataType::kInt64}}))));

  VX_CHECK_OK(registry.Register(
      "bump", [](Catalog* cat, const std::vector<Value>& params) -> Status {
        VX_ASSIGN_OR_RETURN(auto t, cat->GetTable("counter"));
        Table next = *t;
        VX_RETURN_NOT_OK(next.AppendRow({params.at(0)}));
        return cat->ReplaceTable("counter", std::move(next));
      }));

  EXPECT_TRUE(registry.Has("bump"));
  VX_CHECK_OK(registry.Call("bump", &catalog, {Value(int64_t{7})}));
  VX_CHECK_OK(registry.Call("bump", &catalog, {Value(int64_t{8})}));
  auto t = *catalog.GetTable("counter");
  ASSERT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->column(0).GetInt64(1), 8);
}

TEST(ProcedureTest, DuplicateRegistrationFails) {
  ProcedureRegistry registry;
  VX_CHECK_OK(registry.Register("p", [](Catalog*, const std::vector<Value>&) {
    return Status::OK();
  }));
  EXPECT_TRUE(registry
                  .Register("p", [](Catalog*, const std::vector<Value>&) {
                    return Status::OK();
                  })
                  .IsAlreadyExists());
}

TEST(ProcedureTest, UnknownProcedureFails) {
  ProcedureRegistry registry;
  Catalog catalog;
  EXPECT_TRUE(registry.Call("nope", &catalog).IsNotFound());
}

}  // namespace
}  // namespace vertexica
