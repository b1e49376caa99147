/// \file options.h
/// \brief Tuning knobs for the Vertexica engine, mirroring §2.3.

#ifndef VERTEXICA_VERTEXICA_OPTIONS_H_
#define VERTEXICA_VERTEXICA_OPTIONS_H_

#include <cstdint>
#include <string>

namespace vertexica {

/// \brief Execution options of the vertex-centric engine.
///
/// Every §2.3 optimization has a switch here so ablation benches can turn
/// it off: table unions (vs. 3-way join), parallel workers, vertex batching
/// (partition count), update-vs-replace threshold, and message combining.
struct VertexicaOptions {
  /// Parallel worker UDF instances; 0 = the ambient executor thread count
  /// (RunRequest::threads / VERTEXICA_THREADS / hardware cores — "in
  /// practice, we have as many workers as the number of cores").
  int num_workers = 0;

  /// Hash partitions of the worker input ("vertex batching"); 0 = a fixed
  /// default (kDefaultTransformPartitions) that is independent of the
  /// worker count, so results do not vary with parallelism. More
  /// partitions = smaller batches. See TransformOptions in udf/transform.h
  /// for the full contract.
  int num_partitions = 0;

  /// Persistent vertex-id sharding of the superstep dataflow
  /// (storage/partition.h): partition the vertex and edge tables into this
  /// many resident shards once per run, run the per-shard
  /// input→worker→split dataflow shard-wise in parallel every superstep,
  /// and exchange only cross-shard messages (shuffled on receiver) between
  /// supersteps. Shards are contiguous blocks of the vertex-batching
  /// partitions, so results are bit-identical at any shard count.
  /// 0 = the ambient ExecShards() (RunRequest::shards / VERTEXICA_SHARDS,
  /// default 1); 1 = one resident shard holding the whole tables.
  int num_shards = 0;

  /// §2.3 "Table Unions": feed workers the renamed union of the vertex,
  /// edge, and message tables. When false, uses the traditional 3-way-join
  /// plan instead (the paper's strawman).
  bool use_union_input = true;

  /// Apply the program's message combiner (when it declares one): each
  /// worker partition folds its outgoing messages per receiver (Pregel's
  /// sender-side combiner), and an aggregation over the message table
  /// between supersteps folds those partials per receiver. When false,
  /// every sent message is stored and delivered as its own row.
  bool use_combiner = true;

  /// §2.3 "Update Vs Replace": if the fraction of updated vertices is below
  /// this threshold, update the existing vertex table in place; otherwise
  /// rebuild it via left join + table replace.
  double update_threshold = 0.1;

  /// Activation threshold of the sparse frontier superstep path
  /// (docs/EXECUTOR.md): under the `auto` frontier mode a superstep takes
  /// the frontier path when its active-vertex fraction (non-halted
  /// vertices plus message receivers) is at most this value. Ignored when
  /// the ambient frontier mode is `on` (frontier on every superstep after
  /// superstep 0) or `off` (always dense). Value-neutral either way: the two
  /// paths are bit-identical by construction.
  double frontier_threshold = 0.25;

  /// Safety bound on the superstep loop.
  int max_supersteps = 500;

  /// §1 durability: checkpoint the graph tables (and the superstep marker)
  /// into `checkpoint_dir` every N supersteps. 0 disables checkpointing.
  int checkpoint_every = 0;
  std::string checkpoint_dir;

  /// Resume from the superstep marker found in the catalog (written by a
  /// previous checkpointed run and restored via LoadCatalog). When false,
  /// execution always starts at superstep 0.
  bool resume_from_checkpoint = false;
};

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_OPTIONS_H_
