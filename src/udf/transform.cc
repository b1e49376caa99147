#include "udf/transform.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"
#include "exec/parallel.h"
#include "storage/partition.h"
#include "storage/sort.h"

namespace vertexica {

namespace {

Status ValidateColumns(const Table& table, int partition_column,
                       const std::vector<int>& sort_columns,
                       std::vector<SortKey>* keys) {
  if (partition_column < 0 || partition_column >= table.num_columns()) {
    return Status::InvalidArgument("ApplyTransform: bad partition column");
  }
  for (int c : sort_columns) {
    if (c < 0 || c >= table.num_columns()) {
      return Status::InvalidArgument("ApplyTransform: bad sort column");
    }
    keys->push_back(SortKey{c, true});
  }
  return Status::OK();
}

/// A resident section is keyed on its partition column alone.
Status ValidateResidentKey(int partition_column,
                           const std::vector<int>& sort_columns) {
  if (sort_columns != std::vector<int>{partition_column}) {
    return Status::InvalidArgument(
        "ApplyTransform: a resident section needs sort_columns == "
        "{partition_column}");
  }
  return Status::OK();
}

/// The cheap half of the resident contract, checked on every call: the
/// section must have been built for this input's schema and these options.
Status ValidateResident(const ResidentPartitions& resident, const Table& input,
                        int partition_column, const TransformOptions& options,
                        int num_partitions) {
  VX_RETURN_NOT_OK(ValidateResidentKey(partition_column, options.sort_columns));
  if (!resident.rows.schema().Equals(input.schema()) ||
      resident.partition_column != partition_column) {
    return Status::InvalidArgument(
        "ApplyTransform: resident section built for another schema or "
        "partition column");
  }
  const std::vector<int64_t>& off = resident.offsets;
  if (resident.num_partitions() != num_partitions || off.front() != 0 ||
      off.back() != resident.rows.num_rows() ||
      !std::is_sorted(off.begin(), off.end())) {
    return Status::InvalidArgument(StringFormat(
        "ApplyTransform: resident layout has %zu offsets for %d partitions "
        "or its ranges do not ascend from 0 to its %lld rows",
        off.size(), num_partitions,
        static_cast<long long>(resident.rows.num_rows())));
  }
  return Status::OK();
}

/// A stretch of consecutive rows taken from one side of a merge.
struct MergeRun {
  const Table* source;
  int64_t begin;
  int64_t length;
};

template <typename T, typename Values>
std::vector<T> ConcatRuns(const std::vector<MergeRun>& runs, int64_t rows,
                          const Values& values) {
  std::vector<T> out;
  out.reserve(static_cast<size_t>(rows));
  for (const MergeRun& run : runs) {
    const auto& src = values(*run.source);
    const auto first = src.begin() + run.begin;
    out.insert(out.end(), first, first + run.length);
  }
  return out;
}

/// Column `c` of the merged partition: the runs' rows, in run order.
Column GatherRuns(const std::vector<MergeRun>& runs, int c, DataType type,
                  int64_t rows) {
  bool valid = true;
  for (const MergeRun& run : runs) {
    valid = valid && run.source->column(c).null_count() == 0;
  }
  if (valid) {
    switch (type) {
      case DataType::kInt64:
        return Column::FromInts(ConcatRuns<int64_t>(
            runs, rows, [c](const Table& t) -> const std::vector<int64_t>& {
              return t.column(c).ints();
            }));
      case DataType::kDouble:
        return Column::FromDoubles(ConcatRuns<double>(
            runs, rows, [c](const Table& t) -> const std::vector<double>& {
              return t.column(c).doubles();
            }));
      case DataType::kString:
        return Column::FromStrings(ConcatRuns<std::string>(
            runs, rows,
            [c](const Table& t) -> const std::vector<std::string>& {
              return t.column(c).strings();
            }));
      case DataType::kBool:
        return Column::FromBools(ConcatRuns<uint8_t>(
            runs, rows, [c](const Table& t) -> const std::vector<uint8_t>& {
              return t.column(c).bools();
            }));
    }
  }
  Column out(type);
  out.Reserve(rows);
  for (const MergeRun& run : runs) {
    const Column& src = run.source->column(c);
    for (int64_t r = run.begin; r < run.begin + run.length; ++r) {
      out.AppendValue(src.GetValue(r));
    }
  }
  return out;
}

/// Keyed merge of one key-sorted input partition with resident partition
/// `p`: each run of equal keys in the input is followed by that key's
/// equal range of the resident partition, found by a binary search from
/// where the previous range ended. Resident rows whose key no input row
/// carries are left out. Adds the resident rows taken to `*merged_rows`.
Table MergeWithResident(Table part, const ResidentPartitions& resident,
                        int p, int64_t* merged_rows) {
  const Table& res = resident.rows;
  int64_t j = resident.offsets[static_cast<size_t>(p)];
  const int64_t end = resident.offsets[static_cast<size_t>(p) + 1];
  if (j == end) return part;
  const int kc = resident.partition_column;
  const Column& pk = part.column(kc);
  const Column& rk = res.column(kc);
  const bool int_key = pk.null_count() == 0 && rk.null_count() == 0;
  const std::vector<int64_t>* pv = int_key ? &pk.ints() : nullptr;
  const std::vector<int64_t>* rv = int_key ? &rk.ints() : nullptr;
  // Three-way comparison of resident row r with input row i.
  const auto compare = [&](int64_t r, int64_t i) {
    if (int_key) {
      const int64_t a = (*rv)[static_cast<size_t>(r)];
      const int64_t b = (*pv)[static_cast<size_t>(i)];
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    return rk.CompareRows(r, pk, i);
  };
  const auto same_input_key = [&](int64_t i, int64_t k) {
    if (int_key) {
      return (*pv)[static_cast<size_t>(i)] == (*pv)[static_cast<size_t>(k)];
    }
    return pk.CompareRows(i, pk, k) == 0;
  };

  std::vector<MergeRun> runs;
  int64_t taken = 0;
  int64_t pending = 0;  // first input row not yet in `runs`
  const int64_t n = part.num_rows();
  for (int64_t i = 0; i < n && j < end;) {
    int64_t k = i + 1;
    while (k < n && same_input_key(i, k)) ++k;
    // Skip the resident keys below this run's key, then take its range.
    int64_t hi = end;
    while (j < hi) {
      const int64_t mid = j + (hi - j) / 2;
      if (compare(mid, i) < 0) {
        j = mid + 1;
      } else {
        hi = mid;
      }
    }
    int64_t e = j;
    while (e < end && compare(e, i) == 0) ++e;
    if (e > j) {
      runs.push_back({&part, pending, k - pending});
      runs.push_back({&res, j, e - j});
      taken += e - j;
      pending = k;
    }
    j = e;
    i = k;
  }
  if (taken == 0) return part;
  if (pending < n) runs.push_back({&part, pending, n - pending});
  const int64_t rows = n + taken;
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(res.num_columns()));
  for (int c = 0; c < res.num_columns(); ++c) {
    columns.push_back(GatherRuns(runs, c, res.schema().field(c).type, rows));
  }
  auto made = Table::Make(res.schema(), std::move(columns));
  VX_CHECK(made.ok()) << made.status().ToString();
  Table merged = std::move(made).MoveValueUnsafe();
  merged.SetSortOrder({{kc, true}});
  *merged_rows += taken;
  return merged;
}

}  // namespace

TransformParallelism ResolveTransformParallelism(const TransformOptions& opts) {
  TransformParallelism out;
  out.partitions = opts.num_partitions > 0 ? opts.num_partitions
                                           : kDefaultTransformPartitions;
  out.workers = opts.num_workers > 0 ? opts.num_workers : ExecThreads();
  // Enforce the documented partitions >= workers invariant.
  out.workers = std::max(1, std::min(out.workers, out.partitions));
  return out;
}

Result<ResidentPartitions> BuildResidentPartitions(
    const Table& table, int partition_column, const TransformOptions& options) {
  std::vector<SortKey> keys;
  VX_RETURN_NOT_OK(
      ValidateColumns(table, partition_column, options.sort_columns, &keys));
  VX_RETURN_NOT_OK(ValidateResidentKey(partition_column, options.sort_columns));
  const int partitions = ResolveTransformParallelism(options).partitions;
  VX_ASSIGN_OR_RETURN(ScatterPlan plan,
                      PlanHashPartition(table, partition_column, partitions));
  ResidentPartitions out;
  out.partition_column = partition_column;
  out.offsets.reserve(static_cast<size_t>(partitions) + 1);
  std::vector<int64_t> order;
  order.reserve(static_cast<size_t>(table.num_rows()));
  for (std::vector<int64_t>& bucket : plan.indices) {
    out.offsets.push_back(static_cast<int64_t>(order.size()));
    StableSortRows(table, keys, &bucket);
    order.insert(order.end(), bucket.begin(), bucket.end());
  }
  out.offsets.push_back(static_cast<int64_t>(order.size()));
  // One gather into one contiguous table: a per-partition table each would
  // hold 64 partitions x columns of mid-sized blocks for the whole run.
  out.rows = table.Take(order);
  VX_DCHECK_OK(CheckResidentPartitions(out));
  return out;
}

Status CheckResidentPartitions(const ResidentPartitions& resident) {
  const Table& rows = resident.rows;
  const std::vector<int64_t>& off = resident.offsets;
  const auto fail = [](const std::string& what) {
    return Status::Internal("resident layout invariant violated: " + what);
  };
  if (off.size() < 2 || off.front() != 0 || off.back() != rows.num_rows()) {
    return fail("ranges do not cover the rows from 0");
  }
  const int pc = resident.partition_column;
  if (pc < 0 || pc >= rows.num_columns() ||
      rows.column(pc).type() != DataType::kInt64) {
    return fail("partition column is not an INT64 column");
  }
  const Column& key = rows.column(pc);
  const int partitions = resident.num_partitions();
  for (int p = 0; p < partitions; ++p) {
    const int64_t b = off[static_cast<size_t>(p)];
    const int64_t e = off[static_cast<size_t>(p) + 1];
    if (e < b) {
      return fail(StringFormat("range %d descends", p));
    }
    for (int64_t r = b; r < e; ++r) {
      const int want =
          key.IsNull(r) ? 0 : PartitionOf(key.GetInt64(r), partitions);
      if (want != p) {
        return fail(StringFormat(
            "row %lld sits in range %d but belongs to partition %d",
            static_cast<long long>(r), p, want));
      }
      if (r > b && key.CompareRows(r - 1, key, r) > 0) {
        return fail(StringFormat("range %d is not sorted at row %lld", p,
                                 static_cast<long long>(r)));
      }
    }
  }
  return Status::OK();
}

Result<Table> ApplyTransform(const Table& input, int partition_column,
                             const TransformUdfFactory& factory,
                             const TransformOptions& options,
                             const ResidentPartitions* resident,
                             int64_t* merged_resident_rows) {
  std::vector<SortKey> keys;
  VX_RETURN_NOT_OK(
      ValidateColumns(input, partition_column, options.sort_columns, &keys));
  const TransformParallelism par = ResolveTransformParallelism(options);
  if (resident != nullptr) {
    VX_RETURN_NOT_OK(ValidateResident(*resident, input, partition_column,
                                      options, par.partitions));
  }

  // One scatter pass records each partition's rows; only the non-empty
  // partitions are ever gathered, sorted (the §2.3 "each partition is
  // sorted on vertex id" step), merged with the resident section or handed
  // to a UDF instance, so a sparse superstep pays nothing for the empty
  // ones.
  VX_ASSIGN_OR_RETURN(
      ScatterPlan plan,
      PlanHashPartition(input, partition_column, par.partitions));
  const std::vector<int> live = std::move(plan.non_empty);

  // Discover the output schema from a throwaway instance.
  const Schema out_schema = factory()->output_schema();

  // One output slot per live partition, concatenated in ascending
  // partition order, so emission order is deterministic regardless of
  // scheduling.
  std::vector<Table> outputs(live.size(), Table(out_schema));
  // Each gathered partition stays alive until the call returns, and only
  // its sorted (or merged) copy is freed per partition: the heap pattern
  // of gathering every partition up front. When a dense superstep's whole
  // V+E+M union still went through the scatter (vxbench pr-dense, 8 s run,
  // 4-core box, threads = 1), freeing each gathered partition right after
  // its sort nearly doubled the run's minor page faults (to 2.2M) and
  // slowed its PageRank by about 20%; see ROADMAP item 1 on that heap
  // sensitivity.
  std::vector<Table> gathered(live.size());
  std::vector<int64_t> merged(live.size(), 0);

  // Propagate the caller's ambient thread budget into the pool tasks so a
  // UDF body that runs exec kernels keeps honouring RunRequest::threads.
  const int ambient_threads = ExecThreads();
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, live.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        ScopedExecThreads scoped(ambient_threads);
        for (size_t i = begin; i < end; ++i) {
          Table& part = gathered[i];
          part = GatherPartition(input, partition_column, &plan, live[i]);
          Table partition =
              keys.empty() ? std::move(part) : SortTable(part, keys);
          if (resident != nullptr) {
            partition = MergeWithResident(std::move(partition), *resident,
                                          live[i], &merged[i]);
          }
          auto udf = factory();
          Table& out = outputs[i];
          VX_RETURN_NOT_OK(udf->ProcessPartition(
              partition, [&out](Table batch) { return out.Append(batch); }));
        }
        return Status::OK();
      },
      par.workers));

  if (merged_resident_rows != nullptr) {
    *merged_resident_rows =
        std::accumulate(merged.begin(), merged.end(), int64_t{0});
  }
  Table result(out_schema);
  for (auto& out : outputs) {
    VX_RETURN_NOT_OK(result.Append(out));
  }
  return result;
}

}  // namespace vertexica
