/// \file transform.h
/// \brief Vertica-style transform UDFs (table functions with PARTITION BY).
///
/// The Vertexica worker (§2.2) is "a container for the vertex-compute
/// function [that] runs as a database UDF". In Vertica these are transform
/// functions invoked per partition of their input; this module reproduces
/// that invocation contract: the engine hash-partitions the input on a key,
/// optionally sorts each partition, and calls the UDF once per non-empty
/// partition. UDF instances run in parallel across a thread pool ("as many
/// workers as the number of cores").

#ifndef VERTEXICA_UDF_TRANSFORM_H_
#define VERTEXICA_UDF_TRANSFORM_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/cache_sizing.h"
#include "common/threadpool.h"
#include "exec/operator.h"

namespace vertexica {

/// \brief User entry point: consume one sorted partition, emit output rows.
///
/// `emit` may be called any number of times; each call appends a batch with
/// the UDF's declared output schema. Implementations must be thread-safe
/// across *instances* (one instance per partition invocation) but each
/// instance is called from a single thread.
class TransformUdf {
 public:
  virtual ~TransformUdf() = default;

  /// \brief Output schema of the function.
  virtual const Schema& output_schema() const = 0;

  /// \brief Processes one partition. `partition` is sorted by the configured
  /// sort keys. Emitted tables must match `output_schema()`.
  virtual Status ProcessPartition(const Table& partition,
                                  const std::function<Status(Table)>& emit) = 0;
};

/// \brief Factory: one fresh UDF instance per partition (mirrors Vertica's
/// per-invocation UDx lifecycle).
using TransformUdfFactory = std::function<std::unique_ptr<TransformUdf>()>;

/// \brief Execution options for ApplyTransform.
///
/// Parallelism contract (normalized in one place by
/// ResolveTransformParallelism; every consumer sees the same rules):
///  - `num_partitions <= 0` resolves to kDefaultTransformPartitions, a
///    fixed constant deliberately *not* derived from the worker count:
///    partition boundaries determine per-vertex tuple order, so tying them
///    to the thread count would make results vary with parallelism.
///  - `num_workers <= 0` resolves to the ambient ExecThreads() (the
///    RunRequest::threads knob, else VERTEXICA_THREADS, else cores).
///  - `num_partitions >= num_workers` always holds after resolution: a
///    worker with no partition to process would be pure overhead, so the
///    effective worker count is clamped down to the partition count.
struct TransformOptions {
  /// Number of hash partitions ("vertex batching" granularity, §2.3).
  int num_partitions = 0;  // 0 => kDefaultTransformPartitions
  /// Parallel UDF instances; 0 => ambient ExecThreads().
  int num_workers = 0;
  /// Sort each partition by these column indices (ascending) before the UDF
  /// sees it.
  std::vector<int> sort_columns;
};

/// \brief Default "vertex batching" granularity (see TransformOptions):
/// the shared order-defining partition constant (common/cache_sizing.h),
/// which sharded vertex layouts (storage/partition.h) pin too.
inline constexpr int kDefaultTransformPartitions = kVertexBatchPartitions;

/// \brief Resolved (workers, partitions) pair after applying the
/// TransformOptions contract above. partitions >= workers >= 1.
struct TransformParallelism {
  int workers = 1;
  int partitions = 1;
};
TransformParallelism ResolveTransformParallelism(const TransformOptions& opts);

/// \brief A table laid out once in the per-partition form ApplyTransform
/// hands to UDF instances, so a caller that feeds the same rows to many
/// calls (the coordinator's edge section, identical every superstep) pays
/// the scatter and sort once instead of per call.
///
/// `rows` is one contiguous table: the hash scatter of the source table on
/// `partition_column` (PlanHashPartition), partitions in ascending order,
/// each partition stable-sorted on `partition_column` — the section is
/// keyed on that column alone. Partition p holds rows
/// [offsets[p], offsets[p + 1]); `offsets` has num_partitions + 1 entries.
struct ResidentPartitions {
  Table rows;
  std::vector<int64_t> offsets;
  int partition_column = 0;

  int num_partitions() const {
    return static_cast<int>(offsets.size()) - 1;
  }
};

/// \brief Lays `table` out as a ResidentPartitions for `options` (its
/// resolved partition count). One scatter plan, one stable sort of each
/// partition's row ids, one gather. InvalidArgument for the inputs
/// ApplyTransform rejects, including `sort_columns` other than
/// `{partition_column}`. Self-audited under VX_DCHECK
/// (CheckResidentPartitions).
Result<ResidentPartitions> BuildResidentPartitions(
    const Table& table, int partition_column, const TransformOptions& options);

/// \brief Structural audit of a resident layout (the VX_DCHECK tier; see
/// docs/DEVELOPING.md): the ranges start at 0, ascend and cover every row;
/// every row's partition is PartitionOf(key) of its range (NULL keys in 0);
/// each range is sorted on the partition column. O(rows).
Status CheckResidentPartitions(const ResidentPartitions& resident);

/// \brief Runs a transform UDF over `input` partitioned by `partition_column`
/// (an INT64 column index), returning the concatenated outputs.
///
/// One scatter pass (PlanHashPartition) records each partition's rows; then
/// every non-empty partition is gathered, sorted and handed to a fresh UDF
/// instance inside its pool task. Empty partitions are never materialized
/// and get no instance, so the call costs O(rows + non-empty partitions),
/// not O(num_partitions): a sparse superstep with a handful of rows pays
/// for a handful of partitions. Outputs are concatenated in ascending
/// partition order, whatever the scheduling. Instances created: one for
/// output-schema discovery plus one per non-empty partition.
///
/// With `resident` (keyed: `sort_columns` must be `{partition_column}`),
/// each sorted input partition is merged with the resident range of the
/// same partition by key: every run of equal keys in the input is followed
/// by that key's equal range of resident rows, found by binary search.
/// Resident rows whose key no input row carries are never handed to the
/// UDF, and partitions empty on the input side stay dead, so the call
/// costs O(input rows + matched resident rows) plus one binary search per
/// input key, not O(resident rows). It equals ApplyTransform over the
/// concatenation of `input` and the resident rows whose key equals some
/// input key (in that order); only `input` is scattered and sorted.
/// `merged_resident_rows`, when given, receives the number of resident rows
/// handed to UDF instances.
///
/// InvalidArgument when `partition_column` is out of range or not INT64, a
/// `sort_columns` index is out of range, or `resident` does not match: a
/// different schema or partition column, sort columns other than
/// `{partition_column}`, another partition count, or ranges that do not
/// ascend from 0 to its row count.
///
/// Equivalent SQL: `SELECT udf(...) OVER (PARTITION BY key ORDER BY ...)`.
Result<Table> ApplyTransform(const Table& input, int partition_column,
                             const TransformUdfFactory& factory,
                             const TransformOptions& options = {},
                             const ResidentPartitions* resident = nullptr,
                             int64_t* merged_resident_rows = nullptr);

}  // namespace vertexica

#endif  // VERTEXICA_UDF_TRANSFORM_H_
