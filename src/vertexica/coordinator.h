/// \file coordinator.h
/// \brief The coordinator (§2.2): the stored procedure that drives
/// supersteps — "it runs as long as there is any message for the next
/// superstep".
///
/// Each superstep the coordinator
///  1. assembles the worker input from the vertex/edge/message tables —
///     either as the §2.3 table union or as the traditional 3-way join,
///  2. hash-partitions it on vertex id and sorts each partition (vertex
///     batching), runs parallel worker UDFs,
///  3. splits the worker output into vertex updates, new messages, and
///     global-aggregator partials,
///  4. optionally combines messages per receiver (combiner),
///  5. applies vertex updates in place or by table replacement depending on
///     the update fraction (update vs. replace), and swaps in the new
///     message table.

#ifndef VERTEXICA_VERTEXICA_COORDINATOR_H_
#define VERTEXICA_VERTEXICA_COORDINATOR_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "graphgen/graph.h"
#include "storage/bitvector.h"
#include "udf/transform.h"
#include "vertexica/graph_tables.h"
#include "vertexica/options.h"
#include "vertexica/vertex_program.h"

namespace vertexica {

/// \brief Measurements for one superstep (shown in the demo GUI's time
/// monitor and consumed by the benches).
struct SuperstepStats {
  int superstep = 0;
  int64_t input_rows = 0;        ///< worker input size (union or join rows)
  /// Rows projected, scattered and sorted this superstep. Equals
  /// `input_rows` on the join path. On the union path the edge section is
  /// built once per run (RunStats::resident_edge_rows, counted here in the
  /// superstep that builds it), so this is the vertex rows built (all of
  /// them, or the frontier's) plus the inbound messages.
  int64_t built_rows = 0;
  int64_t active_vertices = 0;   ///< vertices whose Compute ran
  int64_t vertex_updates = 0;    ///< vertices whose state changed
  int64_t messages_sent = 0;     ///< messages for the next superstep
  double seconds = 0.0;
  bool used_replace = false;     ///< update-vs-replace decision taken

  /// \name Phase breakdown (sums to ≈ seconds)
  /// @{
  double input_seconds = 0.0;    ///< union/join assembly
  double worker_seconds = 0.0;   ///< partition + sort + Compute
  double split_seconds = 0.0;    ///< output split & combiner
  double apply_seconds = 0.0;    ///< vertex update / table swaps
  /// @}

  /// \name Stored-table footprint (storage/encoding.h)
  /// Sizes of the vertex + message tables as stored at the end of the
  /// superstep: `encoded_bytes` is the actual representation,
  /// `decoded_bytes` the plain equivalent. Both tables are rewritten every
  /// superstep and stay plain between supersteps (only the edge table is
  /// kept encoded), so the two are equal except for columns the superstep
  /// left untouched since load — e.g. the id column of a vertex table
  /// updated in place keeps its load-time encoding.
  /// @{
  int64_t encoded_bytes = 0;
  int64_t decoded_bytes = 0;
  /// @}

  /// \name Shard accounting (storage/partition.h)
  /// Every run executes the resident-shard dataflow; these fields describe
  /// its shards when there is more than one: per-shard worker-input and
  /// stored-message row counts (indexed by shard id), and how many produced
  /// messages crossed a shard boundary in the between-superstep exchange.
  /// One-shard runs report shards = 1, empty vectors and 0 crossings.
  ///
  /// Shards run their input build, worker and split in parallel, so the
  /// phase breakdown reports critical-path times: `input_seconds` is the
  /// slowest shard's input build (frontier decision included),
  /// `split_seconds` the slowest shard's worker-output split plus the
  /// message exchange (combiner, routing, receiver sort), and
  /// `worker_seconds` the rest of the shard-parallel span (partition, sort
  /// and Compute). At one shard each phase is exactly that phase's time.
  /// @{
  int shards = 1;
  std::vector<int64_t> shard_input_rows;
  std::vector<int64_t> shard_messages;
  int64_t cross_shard_messages = 0;
  /// @}

  /// \name Frontier-path accounting (docs/EXECUTOR.md)
  /// Whether this superstep's worker input was built from the sparse
  /// active-vertex frontier instead of the full tables, and how many
  /// vertices the frontier contained (the active-set popcount; 0 on dense
  /// supersteps). The decision is per shard: `used_frontier` is true when
  /// any shard took the frontier path and `frontier_vertices` sums the
  /// frontier shards' active counts.
  /// @{
  bool used_frontier = false;
  int64_t frontier_vertices = 0;
  /// @}

  /// \name Join-path accounting (exec/merge_join.h)
  /// Joins executed by this superstep's relational plans — the 3-way
  /// input build and the replace-path vertex rebuild — split by physical
  /// path: order-aware merge joins vs hash joins. `join_rows` is rows
  /// emitted, `join_seconds` wall-clock inside the join kernels (part of
  /// input_seconds/apply_seconds, not in addition to them). With
  /// the merge-join knob on and the join input path, both superstep joins
  /// run as merge joins: zero hash builds per superstep.
  /// @{
  int64_t merge_joins = 0;
  int64_t hash_joins = 0;
  int64_t join_rows = 0;
  double join_seconds = 0.0;
  /// @}
};

/// \brief Whole-run measurements.
struct RunStats {
  std::vector<SuperstepStats> supersteps;
  double total_seconds = 0.0;
  int64_t total_messages = 0;

  /// \name Frontier-vs-dense superstep counts (docs/EXECUTOR.md)
  /// How many supersteps took each input-build path; they sum to
  /// `supersteps.size()` when per-step stats are collected.
  /// @{
  int64_t frontier_supersteps = 0;
  int64_t dense_supersteps = 0;
  /// @}

  /// Edge rows laid out in worker-input form for the union path
  /// (udf/transform.h ResidentPartitions): once per shard per run, so a
  /// union-path run reports the edge count, a join-path run 0.
  int64_t resident_edge_rows = 0;

  /// Superstep count for engines that run supersteps without a per-step
  /// phase breakdown (e.g. the BSP comparator behind the Engine facade);
  /// -1 = derive the count from `supersteps`.
  int superstep_count = -1;

  int num_supersteps() const {
    return superstep_count >= 0 ? superstep_count
                                : static_cast<int>(supersteps.size());
  }

  /// \brief Serializes totals and the per-superstep phase breakdown as a
  /// single JSON object, so benches and `RunResult` report uniformly:
  /// {"total_seconds":…,"total_messages":…,"num_supersteps":…,
  ///  "supersteps":[{"superstep":…,"input_rows":…,…},…]}.
  std::string ToJson() const;
};

/// \brief Streams `stats.ToJson()`.
std::ostream& operator<<(std::ostream& os, const RunStats& stats);

/// \brief Drives a vertex program over the graph tables in a catalog.
class Coordinator {
 public:
  Coordinator(Catalog* catalog, VertexProgram* program,
              VertexicaOptions options = {}, GraphTableNames names = {});

  /// \brief Runs supersteps until no messages remain and all vertices have
  /// voted to halt (or max_supersteps is reached).
  ///
  /// One superstep loop serves every shard count (VertexicaOptions::
  /// num_shards, else the ambient ExecShards() knob, capped at the
  /// vertex-batching partition count): the vertex, edge and message tables
  /// are partitioned on vertex id once, kept resident across supersteps,
  /// and each superstep runs the per-shard dataflow shard-wise in parallel,
  /// exchanging messages in between. One shard is the degenerate case: the
  /// shard sets hold the catalog's snapshots themselves and nothing is
  /// scattered or copied. Results are bit-identical at any shard count.
  ///
  /// Catalog contract: the vertex and message tables are published to the
  /// catalog at checkpoints and at run end, not after every superstep.
  /// After an error return the catalog holds the run's input tables or its
  /// last checkpoint. A restored checkpoint marker that is not exactly one
  /// non-null INT64 value >= 0 is rejected with InvalidArgument.
  Status Run(RunStats* stats = nullptr);

  /// \brief Global aggregator values from the final superstep.
  const std::map<std::string, double>& aggregates() const {
    return prev_aggregates_;
  }

 private:
  /// Shared snapshots so the morsel-parallel input build (exec/parallel.h)
  /// can range-scan the catalog tables without copying them.
  using TablePtr = std::shared_ptr<const Table>;

  /// The vertex and message sections of the §2.3 union, in that order.
  /// The edge section reaches the worker transform as BuildResidentEdges'
  /// output, merged in by key.
  Result<Table> BuildUnionInput(const TablePtr& vertex,
                                const TablePtr& message) const;
  /// The edge section of the union in worker-input form — projected,
  /// hash-partitioned and sorted per `topts` — built once per edge shard
  /// per run, on the run's first union-path superstep.
  Result<std::shared_ptr<const ResidentPartitions>> BuildResidentEdges(
      const TablePtr& edge, const TransformOptions& topts) const;
  /// Projects/numbers/re-encodes the (esrc, edst, eweight, edge_seq) join
  /// side of an edge table — built once per edge shard per run.
  Result<TablePtr> BuildEdgeJoinSide(const TablePtr& edge) const;
  /// The per-superstep half: vertex ⟕ message ⟕ prebuilt edge side.
  Result<Table> BuildJoinInputWithEdgeSide(const TablePtr& vertex,
                                           const TablePtr& edge_side,
                                           const TablePtr& message) const;

  /// \name Frontier input builders (docs/EXECUTOR.md)
  ///
  /// Sparse counterparts of BuildUnionInput / BuildJoinInputWithEdgeSide:
  /// the worker input is gathered from the `frontier` bitvector over
  /// vertex rows — the active vertex rows (union path, whose resident edge
  /// section then contributes exactly their edges) or the restricted probe
  /// side (join path) — plus the full message table (every receiver is in
  /// the frontier by construction; receivers absent from the vertex table
  /// are skipped by the worker exactly as on the dense path). Gathers
  /// iterate set bits in ascending row order, so after the stable
  /// partition-and-sort each vertex's edge and message lists — and
  /// therefore results, combiner folds, and aggregate FP folds — are
  /// bit-identical to the dense build. On both union paths a vertex's rows
  /// arrive V, M, E.
  /// @{
  Result<Table> BuildUnionInputFrontier(const TablePtr& vertex,
                                        const TablePtr& message,
                                        const Bitvector& frontier) const;
  Result<Table> BuildJoinInputFrontier(const TablePtr& vertex,
                                       const TablePtr& edge_side,
                                       const TablePtr& message,
                                       const Bitvector& frontier) const;
  /// @}
  /// Applies the program's message combiner (when configured and enabled)
  /// over a message table; otherwise returns it unchanged.
  Result<Table> CombineMessages(Table messages) const;
  /// In-place path of §2.3 "Update Vs Replace": scatters the updates into
  /// `vertex`, finding each update's row by binary search over the
  /// id-sorted vertex table. O(updates · log V); no column is copied.
  Status UpdateVerticesInPlace(Table* vertex, const Table& updates) const;
  /// Replace path: anti-join out updated ids, union the new rows.
  Result<Table> RebuildVertices(const Table& vertex,
                                const Table& updates) const;

  /// Re-declares `keys` (ascending) on a stored table when the rows are
  /// verifiably in that order but the declaration is missing — checkpoint
  /// restore (catalog_io) persists no sort-order metadata, and without
  /// this a resumed run would silently pin every superstep join to the
  /// hash path. A table not in key order is stable-sorted on `keys` when
  /// `sort_unsorted` is set (the vertex table's run-wide id order) and
  /// left as it is otherwise.
  Status RestoreSortedInvariant(const std::string& table_name,
                                const std::vector<std::string>& keys,
                                bool sort_unsorted) const;

  Catalog* catalog_;
  VertexProgram* program_;
  VertexicaOptions options_;
  GraphTableNames names_;
  std::map<std::string, double> prev_aggregates_;
};

/// \brief Convenience entry point: loads `graph` into `catalog` (vertex,
/// edge and empty message tables) and runs the program to completion.
Status RunVertexProgram(Catalog* catalog, const Graph& graph,
                        VertexProgram* program,
                        VertexicaOptions options = {},
                        GraphTableNames names = {}, RunStats* stats = nullptr);

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_COORDINATOR_H_
