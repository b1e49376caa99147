#include "storage/partition.h"

#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/exec_knobs.h"  // AmbientEncodingMode for per-shard encoding
#include "storage/encoding.h"

namespace vertexica {

namespace {

// ------------------------------------------------------------ the scatter

/// Computes the bucket of every row of `keys` under `bucket_of` (a non-NULL
/// int64 -> bucket id map). This is the single implementation of the
/// scatter contract in partition.h: NULL keys to bucket 0 via the validity
/// bitmap, RLE keys decided run-at-a-time, input order preserved.
template <typename BucketOf>
ScatterPlan ScatterByKey(const Column& keys, int num_buckets,
                         const BucketOf& bucket_of) {
  ScatterPlan plan;
  plan.indices.resize(static_cast<size_t>(num_buckets));
  if (const auto* runs = keys.rle_runs()) {
    if (keys.null_count() == 0) {
      // Fully-valid RLE key: one bucket decision per run, and whole runs
      // append to the bucket's rebuilt key column.
      plan.key_runs.resize(static_cast<size_t>(num_buckets));
      plan.have_key_runs = true;
      int64_t row = 0;
      for (const RleRun& run : *runs) {
        const auto b = static_cast<size_t>(bucket_of(run.value));
        auto& idx = plan.indices[b];
        for (int64_t i = 0; i < run.length; ++i) idx.push_back(row + i);
        auto& out_runs = plan.key_runs[b];
        if (!out_runs.empty() && out_runs.back().value == run.value) {
          out_runs.back().length += run.length;
        } else {
          out_runs.push_back({run.value, run.length});
        }
        row += run.length;
      }
      return plan;
    }
    // Null-bearing RLE key: values still come from the runs (no decode);
    // validity is consulted per row.
    int64_t row = 0;
    for (const RleRun& run : *runs) {
      const auto vb = static_cast<size_t>(bucket_of(run.value));
      for (int64_t i = 0; i < run.length; ++i) {
        plan.indices[keys.IsNull(row + i) ? 0 : vb].push_back(row + i);
      }
      row += run.length;
    }
    return plan;
  }
  const auto& values = keys.ints();
  for (int64_t i = 0; i < keys.length(); ++i) {
    const auto b = keys.IsNull(i)
                       ? size_t{0}
                       : static_cast<size_t>(
                             bucket_of(values[static_cast<size_t>(i)]));
    plan.indices[b].push_back(i);
  }
  return plan;
}

Status ValidateSpec(const ShardingSpec& spec) {
  if (spec.num_shards < 1 || spec.base_partitions < 1 ||
      spec.num_shards > spec.base_partitions) {
    return Status::InvalidArgument("malformed ShardingSpec");
  }
  return Status::OK();
}

Status ValidateKeyColumn(const Table& table, int key_column) {
  if (key_column < 0 || key_column >= table.num_columns()) {
    return Status::InvalidArgument("partition key column out of range");
  }
  if (table.column(key_column).type() != DataType::kInt64) {
    return Status::InvalidArgument("partition key must be INT64");
  }
  return Status::OK();
}

}  // namespace

Result<ScatterPlan> PlanHashPartition(const Table& table, int key_column,
                                      int num_partitions) {
  if (num_partitions < 1) {
    return Status::InvalidArgument("partition count must be positive");
  }
  VX_RETURN_NOT_OK(ValidateKeyColumn(table, key_column));
  ScatterPlan plan = ScatterByKey(
      table.column(key_column), num_partitions, [num_partitions](int64_t key) {
        return PartitionOf(key, num_partitions);
      });
  for (int b = 0; b < num_partitions; ++b) {
    if (!plan.indices[static_cast<size_t>(b)].empty()) {
      plan.non_empty.push_back(b);
    }
  }
  VX_DCHECK_OK(CheckHashPartitionPlan(table, key_column, num_partitions, plan));
  return plan;
}

Table GatherPartition(const Table& table, int key_column, ScatterPlan* plan,
                      int b) {
  const auto bz = static_cast<size_t>(b);
  const std::vector<int64_t> idx = std::move(plan->indices[bz]);
  if (!plan->have_key_runs) return table.Take(idx);
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c == key_column) {
      columns.push_back(Column::FromRleRuns(std::move(plan->key_runs[bz])));
    } else {
      columns.push_back(table.column(c).Take(idx));
    }
  }
  auto made = Table::Make(table.schema(), std::move(columns));
  VX_CHECK(made.ok()) << made.status().ToString();
  return std::move(made).MoveValueUnsafe();
}

Status CheckHashPartitionPlan(const Table& table, int key_column,
                              int num_partitions, const ScatterPlan& plan) {
  const int64_t rows = table.num_rows();
  if (static_cast<int>(plan.indices.size()) != num_partitions) {
    return Status::Internal(StringFormat(
        "scatter plan invariant violated: %zu buckets for %d partitions",
        plan.indices.size(), num_partitions));
  }
  const Column& keys = table.column(key_column);
  std::vector<uint8_t> seen(static_cast<size_t>(rows), 0);
  std::vector<int> occupied;
  for (int b = 0; b < num_partitions; ++b) {
    const auto& idx = plan.indices[static_cast<size_t>(b)];
    if (!idx.empty()) occupied.push_back(b);
    for (size_t i = 0; i < idx.size(); ++i) {
      const int64_t r = idx[i];
      if (r < 0 || r >= rows || seen[static_cast<size_t>(r)] != 0 ||
          (i > 0 && idx[i - 1] >= r)) {
        return Status::Internal(StringFormat(
            "scatter plan invariant violated: bucket %d entry %zu (row %lld) "
            "is out of range, repeated or not ascending",
            b, i, static_cast<long long>(r)));
      }
      seen[static_cast<size_t>(r)] = 1;
      const int want = keys.IsNull(r)
                           ? 0
                           : PartitionOf(keys.GetInt64(r), num_partitions);
      if (want != b) {
        return Status::Internal(StringFormat(
            "scatter plan invariant violated: row %lld sits in bucket %d but "
            "belongs to bucket %d",
            static_cast<long long>(r), b, want));
      }
    }
    if (plan.have_key_runs) {
      int64_t covered = 0;
      for (const RleRun& run : plan.key_runs[static_cast<size_t>(b)]) {
        covered += run.length;
      }
      if (covered != static_cast<int64_t>(idx.size())) {
        return Status::Internal(StringFormat(
            "scatter plan invariant violated: bucket %d holds %zu rows but "
            "its key runs cover %lld",
            b, idx.size(), static_cast<long long>(covered)));
      }
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    if (seen[static_cast<size_t>(r)] == 0) {
      return Status::Internal(StringFormat(
          "scatter plan invariant violated: row %lld is in no bucket",
          static_cast<long long>(r)));
    }
  }
  if (occupied != plan.non_empty) {
    return Status::Internal(
        "scatter plan invariant violated: non-empty bucket list does not "
        "match the occupied buckets");
  }
  return Status::OK();
}

std::vector<Table> HashPartition(const Table& table, int key_column,
                                 int num_partitions) {
  auto planned = PlanHashPartition(table, key_column, num_partitions);
  VX_CHECK_OK(planned.status());
  ScatterPlan plan = std::move(planned).MoveValueUnsafe();
  std::vector<Table> out;
  out.reserve(static_cast<size_t>(num_partitions));
  for (int b = 0; b < num_partitions; ++b) {
    out.push_back(GatherPartition(table, key_column, &plan, b));
  }
  return out;
}

Result<std::vector<Table>> ShardScatter(const Table& table, int key_column,
                                        const ShardingSpec& spec) {
  VX_RETURN_NOT_OK(ValidateSpec(spec));
  VX_RETURN_NOT_OK(ValidateKeyColumn(table, key_column));
  if (spec.num_shards == 1) return std::vector<Table>{table};
  const Column& keys = table.column(key_column);
  ScatterPlan plan = ScatterByKey(
      keys, spec.num_shards,
      [&spec](int64_t key) { return spec.ShardOfKey(key); });
  std::vector<Table> out;
  out.reserve(static_cast<size_t>(spec.num_shards));
  for (int b = 0; b < spec.num_shards; ++b) {
    Table shard = GatherPartition(table, key_column, &plan, b);
    // A stable scatter keeps every shard a subsequence of the input, so
    // the input's declared order holds shard-locally — re-declare it
    // (Take/Make conservatively dropped it).
    if (!table.sort_order().empty()) {
      shard.SetSortOrder(table.sort_order());
    }
    out.push_back(std::move(shard));
  }
  return out;
}

Result<PartitionSet> PartitionSet::Build(TablePtr table, int key_column,
                                         const ShardingSpec& spec) {
  PartitionSet set;
  set.spec_ = spec;
  set.key_column_ = key_column;
  if (spec.num_shards == 1) {
    // The degenerate set is its input: nothing to scatter, and re-encoding
    // would only copy a table the caller already holds.
    VX_RETURN_NOT_OK(ValidateSpec(spec));
    VX_RETURN_NOT_OK(ValidateKeyColumn(*table, key_column));
    set.shards_.push_back({std::move(table), nullptr});
  } else {
    VX_ASSIGN_OR_RETURN(std::vector<Table> shards,
                        ShardScatter(*table, key_column, spec));
    set.shards_.reserve(shards.size());
    const EncodingMode mode = AmbientEncodingMode();
    for (Table& shard : shards) {
      // Retain the physical design per shard: the scatter already carried
      // the sort-order declaration over; encoding adds segments + zone
      // maps for the columns it encodes (a key column rebuilt from runs is
      // already RLE and keeps its segment).
      if (mode != EncodingMode::kOff) shard.EncodeColumns(mode);
      auto owned = std::make_shared<Table>(std::move(shard));
      Table* writable = owned.get();
      set.shards_.push_back({std::move(owned), writable});
    }
  }
  // Self-audit the freshly built set (placement, per-shard structure): a
  // scatter bug caught here aborts at the source instead of surfacing as a
  // wrong answer supersteps later.
  VX_DCHECK_OK(set.CheckInvariants());
  return set;
}

Result<PartitionSet> PartitionSet::Build(const Table& table, int key_column,
                                         const ShardingSpec& spec) {
  return Build(std::make_shared<const Table>(table), key_column, spec);
}

int64_t PartitionSet::total_rows() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) total += shard.table->num_rows();
  return total;
}

void PartitionSet::ReplaceShard(int s, Table t) {
  Shard& shard = shards_[static_cast<size_t>(s)];
  auto owned = std::make_shared<Table>(std::move(t));
  shard.writable = owned.get();
  shard.table = std::move(owned);
}

Table* PartitionSet::MutableShard(int s) {
  Shard& shard = shards_[static_cast<size_t>(s)];
  // use_count() == 1 is exact here: only the set holds the pointer, so no
  // other thread can be taking a new reference concurrently.
  if (shard.writable == nullptr || shard.table.use_count() != 1) {
    auto copy = std::make_shared<Table>(*shard.table);
    shard.writable = copy.get();
    shard.table = std::move(copy);
  }
  return shard.writable;
}

Status ShardingSpec::Validate() const {
  if (num_shards < 1 || base_partitions < 1 ||
      num_shards > base_partitions) {
    return Status::Internal(StringFormat(
        "ShardingSpec invariant violated: %d shards over %d base partitions",
        num_shards, base_partitions));
  }
  // ShardOfPartition must walk 0..num_shards-1 without skipping or going
  // backwards — contiguous monotone blocks, every shard non-empty.
  int prev = -1;
  for (int p = 0; p < base_partitions; ++p) {
    const int s = ShardOfPartition(p);
    if (s < prev || s > prev + 1 || s < 0 || s >= num_shards) {
      return Status::Internal(StringFormat(
          "ShardingSpec invariant violated: partition %d maps to shard %d "
          "after partition %d mapped to shard %d (not contiguous monotone "
          "blocks)",
          p, s, p - 1, prev));
    }
    prev = s;
  }
  if (prev != num_shards - 1) {
    return Status::Internal(StringFormat(
        "ShardingSpec invariant violated: last base partition maps to shard "
        "%d, leaving shards up to %d empty",
        prev, num_shards - 1));
  }
  return Status::OK();
}

Status PartitionSet::CheckInvariants() const {
  VX_RETURN_NOT_OK(spec_.Validate());
  if (static_cast<int>(shards_.size()) != spec_.num_shards) {
    return Status::Internal(StringFormat(
        "PartitionSet invariant violated: %zu resident shards for a %d-shard "
        "spec",
        shards_.size(), spec_.num_shards));
  }
  for (int s = 0; s < num_shards(); ++s) {
    const TablePtr& shard = shards_[static_cast<size_t>(s)].table;
    if (shard == nullptr) {
      return Status::Internal(StringFormat(
          "PartitionSet invariant violated: shard %d is null", s));
    }
    if (key_column_ < 0 || key_column_ >= shard->num_columns() ||
        shard->column(key_column_).type() != DataType::kInt64) {
      return Status::Internal(StringFormat(
          "PartitionSet invariant violated: key column %d invalid for shard "
          "%d",
          key_column_, s));
    }
    VX_RETURN_NOT_OK(shard->CheckInvariants());
    // Placement: every row must hash to the shard holding it (NULL keys to
    // shard 0) — the obligation ReplaceShard callers take on.
    const Column& keys = shard->column(key_column_);
    for (int64_t r = 0; r < keys.length(); ++r) {
      const int want =
          keys.IsNull(r) ? spec_.ShardOfNull() : spec_.ShardOfKey(keys.GetInt64(r));
      if (want != s) {
        return Status::Internal(StringFormat(
            "PartitionSet invariant violated: row %lld of shard %d carries a "
            "key owned by shard %d",
            static_cast<long long>(r), s, want));
      }
    }
  }
  return Status::OK();
}

}  // namespace vertexica
