/// \file partition.h
/// \brief Hash partitioning and persistent sharding of tables.
///
/// §2.3 "Vertex Batching": Vertexica hash-partitions the vertex/edge/message
/// union on vertex id into a fixed number of partitions, each processed
/// serially by one worker. This module provides that scatter primitive
/// (HashPartition) plus the persistent form the sharded superstep dataflow
/// is built on: a ShardingSpec that coarsens the same hash partitioning into
/// contiguous shard blocks, and a PartitionSet of resident, metadata-bearing
/// shard tables partitioned once per run.
///
/// Scatter contract (shared by PlanHashPartition, HashPartition,
/// ShardScatter, PartitionSet):
///  - NULL keys deterministically land in partition/shard 0. The key
///    column's validity bitmap is consulted; the value slot of a NULL row
///    (which holds an unspecified placeholder) never reaches the hash.
///  - Row order within a partition preserves input order (the scatter is
///    stable), so any declared sort order of the input holds within each
///    output partition.
///  - An RLE-encoded key column scatters run-at-a-time: one bucket decision
///    per run, and — when the key column is fully valid — the
///    per-partition key columns are rebuilt directly from the assigned
///    runs, so the key column is never decoded. A null-bearing RLE key
///    still reads values run-at-a-time but gathers through the generic
///    (decoding) path, producing plain outputs.

#ifndef VERTEXICA_STORAGE_PARTITION_H_
#define VERTEXICA_STORAGE_PARTITION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cache_sizing.h"
#include "common/hash.h"
#include "common/result.h"
#include "storage/table.h"

namespace vertexica {

/// \brief Partition id of an int64 key for `num_partitions` buckets.
inline int PartitionOf(int64_t key, int num_partitions) {
  return static_cast<int>(HashInt64(static_cast<uint64_t>(key)) %
                          static_cast<uint64_t>(num_partitions));
}

/// \brief The row ids of one stable scatter (the contract above), computed
/// once and gathered bucket by bucket on demand, plus — on the RLE fast
/// path — the per-bucket key columns as runs, so the gather can rebuild
/// them without the source key column ever being decoded.
struct ScatterPlan {
  std::vector<std::vector<int64_t>> indices;  // per bucket, ascending
  std::vector<std::vector<RleRun>> key_runs;  // filled iff have_key_runs
  bool have_key_runs = false;
  std::vector<int> non_empty;  // buckets holding rows, ascending
};

/// \brief Plans the hash scatter of `table` into `num_partitions` buckets
/// by PartitionOf over the int64 column `key_column`: one pass over the key
/// column (one bucket decision per run of an RLE key), no row copied. Per
/// bucket it costs only an empty-vector slot and one emptiness check, so a
/// caller that gathers only `non_empty` does O(rows + non-empty buckets)
/// real work. InvalidArgument when the key column is out of range or not
/// INT64, or `num_partitions < 1`. Self-audited under VX_DCHECK
/// (CheckHashPartitionPlan).
Result<ScatterPlan> PlanHashPartition(const Table& table, int key_column,
                                      int num_partitions);

/// \brief Materializes bucket `b` of `plan` over the `table` it was planned
/// from: its rows in input order, the key column rebuilt from runs (never
/// decoded) on the RLE fast path. Consumes the bucket (its row ids and key
/// runs are released), so each bucket is gathered at most once and the
/// plan shrinks as its buckets are gathered; distinct buckets may be
/// gathered concurrently.
Table GatherPartition(const Table& table, int key_column, ScatterPlan* plan,
                      int b);

/// \brief Audit of a freshly planned hash scatter (the VX_DCHECK tier; see
/// docs/DEVELOPING.md): every row lands in exactly one bucket, each
/// bucket's row ids ascend, each row's bucket is PartitionOf(key) (NULL
/// keys in bucket 0), `non_empty` lists exactly the non-empty buckets in
/// ascending order, and rebuilt key runs cover exactly their bucket's rows.
/// O(rows + buckets).
Status CheckHashPartitionPlan(const Table& table, int key_column,
                              int num_partitions, const ScatterPlan& plan);

/// \brief Splits `table` into `num_partitions` tables by hashing the int64
/// column `key_column`: every bucket of PlanHashPartition gathered, empty
/// ones included. Row order within a partition preserves input order; NULL
/// keys go to partition 0 (see the scatter contract above). Aborts on a bad
/// key column or partition count; PlanHashPartition reports them instead.
std::vector<Table> HashPartition(const Table& table, int key_column,
                                 int num_partitions);

/// \brief How keys map to shards: keys hash into `base_partitions` buckets
/// (PartitionOf — the same function vertex batching uses) and contiguous
/// runs of buckets form the `num_shards` shards.
///
/// Coarsening the *same* base partitioning is what makes shard placement
/// compose with vertex batching: a shard's rows hash into a contiguous
/// block of the base partitions, so a per-shard batching pass (with the
/// same base count) reproduces exactly the partitions of a whole-table
/// pass, in order — the property behind the superstep dataflow being
/// bit-identical at any shard count. `num_shards` must not exceed
/// `base_partitions`.
struct ShardingSpec {
  int num_shards = 1;
  /// Keep equal to the vertex-batching count (the shared order-defining
  /// constant in common/cache_sizing.h; audited in vertexica/coordinator.cc).
  int base_partitions = kVertexBatchPartitions;

  /// \brief Shard owning base partition `p`: contiguous monotone blocks.
  int ShardOfPartition(int p) const {
    return static_cast<int>(static_cast<int64_t>(p) * num_shards /
                            base_partitions);
  }
  /// \brief Shard owning `key` (non-NULL).
  int ShardOfKey(int64_t key) const {
    return ShardOfPartition(PartitionOf(key, base_partitions));
  }
  /// \brief NULL keys deterministically own shard 0 (scatter contract).
  int ShardOfNull() const { return 0; }

  /// \brief Structural audit (the VX_DCHECK tier; see docs/DEVELOPING.md):
  /// shard count in [1, base_partitions], and ShardOfPartition a monotone
  /// surjection onto [0, num_shards) — every shard owns at least one
  /// contiguous block of base partitions, the coarsening property the
  /// sharded dataflow's bit-identical-at-any-shard-count claim rests on.
  Status Validate() const;
};

/// \brief Order-preserving scatter of `table` into `spec.num_shards` tables
/// by the shard of the int64 column `key_column`. Any declared sort order
/// of the input is re-declared on every shard (a stable scatter keeps each
/// shard a subsequence of the input). NULL keys go to shard 0. The
/// one-bucket scatter returns its input as is (encodings included).
Result<std::vector<Table>> ShardScatter(const Table& table, int key_column,
                                        const ShardingSpec& spec);

/// \brief A resident shard set: one table per shard, partitioned once and
/// kept across uses (the superstep dataflow re-reads shards every superstep
/// instead of re-partitioning its input).
///
/// Build retains per-shard physical-design metadata: inherited sort-order
/// declarations from the scatter, and — when the ambient encoding mode is
/// not off — per-shard segment encodings and zone maps (Table::EncodeColumns
/// over each scattered shard; a one-shard set keeps its input's). Shards
/// are exposed as shared snapshots so the morsel-parallel executor can
/// range-scan them without copying.
class PartitionSet {
 public:
  using TablePtr = std::shared_ptr<const Table>;

  PartitionSet() = default;

  /// \brief Partitions `table` on `key_column` per `spec`. A one-shard set
  /// holds `table` itself: no scatter, no copy, no re-encode. Fails when
  /// the key column is not INT64 or the spec is malformed
  /// (num_shards < 1 or num_shards > base_partitions).
  static Result<PartitionSet> Build(TablePtr table, int key_column,
                                    const ShardingSpec& spec);
  /// \brief Same over a table value, which is copied into a snapshot first.
  static Result<PartitionSet> Build(const Table& table, int key_column,
                                    const ShardingSpec& spec);

  const ShardingSpec& spec() const { return spec_; }
  int key_column() const { return key_column_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const TablePtr& shard(int s) const {
    return shards_[static_cast<size_t>(s)].table;
  }

  /// \brief Sum of rows across shards.
  int64_t total_rows() const;

  /// \brief Swaps in a new table for shard `s` (the vertex-update path; the
  /// caller is responsible for the rows still belonging to the shard).
  void ReplaceShard(int s, Table t);

  /// \brief Write access to shard `s`, copy-on-write. A shard that anyone
  /// else still holds (the snapshot a one-shard set was built over, a
  /// version published to the catalog, any outstanding TablePtr) is first
  /// replaced by a private copy; a shard the set alone owns is handed out
  /// as is, so repeated writes copy at most once. The caller keeps every
  /// row in the shard it belongs to, as for ReplaceShard.
  Table* MutableShard(int s);

  /// \brief Deep structural audit (the VX_DCHECK tier; see
  /// docs/DEVELOPING.md). Verifies the spec itself (ShardingSpec::Validate),
  /// that the set holds exactly `spec().num_shards` non-null shard tables
  /// each passing Table::CheckInvariants, and — the placement contract —
  /// that every row of every shard actually hashes to that shard (NULL keys
  /// to shard 0). Catches ReplaceShard callers that break the "rows still
  /// belong to the shard" obligation. O(total rows); call behind
  /// VX_DCHECK_OK.
  Status CheckInvariants() const;

 private:
  struct Shard {
    TablePtr table;
    /// The set's own writable table behind `table`, or nullptr when the
    /// shard is a snapshot the set did not create.
    Table* writable = nullptr;
  };

  ShardingSpec spec_;
  int key_column_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace vertexica

#endif  // VERTEXICA_STORAGE_PARTITION_H_
