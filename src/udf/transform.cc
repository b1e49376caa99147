#include "udf/transform.h"

#include <algorithm>

#include "exec/parallel.h"
#include "storage/partition.h"
#include "storage/sort.h"

namespace vertexica {

TransformParallelism ResolveTransformParallelism(const TransformOptions& opts) {
  TransformParallelism out;
  out.partitions = opts.num_partitions > 0 ? opts.num_partitions
                                           : kDefaultTransformPartitions;
  out.workers = opts.num_workers > 0 ? opts.num_workers : ExecThreads();
  // Enforce the documented partitions >= workers invariant.
  out.workers = std::max(1, std::min(out.workers, out.partitions));
  return out;
}

Result<Table> ApplyTransform(const Table& input, int partition_column,
                             const TransformUdfFactory& factory,
                             const TransformOptions& options) {
  if (partition_column < 0 || partition_column >= input.num_columns()) {
    return Status::InvalidArgument("ApplyTransform: bad partition column");
  }
  std::vector<SortKey> keys;
  for (int c : options.sort_columns) {
    if (c < 0 || c >= input.num_columns()) {
      return Status::InvalidArgument("ApplyTransform: bad sort column");
    }
    keys.push_back(SortKey{c, true});
  }
  const TransformParallelism par = ResolveTransformParallelism(options);

  // One scatter pass records each partition's rows; only the non-empty
  // partitions are ever gathered, sorted (the §2.3 "each partition is
  // sorted on vertex id" step) or handed to a UDF instance, so a sparse
  // superstep pays nothing for the empty ones.
  VX_ASSIGN_OR_RETURN(
      ScatterPlan plan,
      PlanHashPartition(input, partition_column, par.partitions));
  const std::vector<int>& live = plan.non_empty;

  // Discover the output schema from a throwaway instance.
  const Schema out_schema = factory()->output_schema();

  // One output slot per non-empty partition, concatenated in ascending
  // partition order, so emission order is deterministic regardless of
  // scheduling.
  std::vector<Table> outputs(live.size(), Table(out_schema));
  // Each gathered partition stays alive until the call returns, and only
  // its sorted copy is freed per partition: the heap pattern of gathering
  // every partition up front. Freeing each gathered partition right after
  // its sort nearly doubled the minor page faults of vxbench pr-dense (to
  // 2.2M in an 8 s run, 4-core box, threads = 1) and slowed its vertexica
  // PageRank by about 20%; see ROADMAP item 1 on that heap sensitivity.
  std::vector<Table> gathered(live.size());

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
          auto udf = factory();
          Table& out = outputs[i];
          VX_RETURN_NOT_OK(udf->ProcessPartition(
              partition, [&out](Table batch) { return out.Append(batch); }));
        }
        return Status::OK();
      },
      par.workers));

  Table result(out_schema);
  for (auto& out : outputs) {
    VX_RETURN_NOT_OK(result.Append(out));
  }
  return result;
}

}  // namespace vertexica
