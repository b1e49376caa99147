/// \file merge_join.h
/// \brief Order-aware sort-merge join over sorted inputs.
///
/// PR 3 pays to keep the edge table sorted on (src, dst) with an RLE
/// source column, and the coordinator keeps the vertex table sorted by id
/// and the message table sorted by receiver — yet the superstep triple
/// join re-built hash tables over those statically ordered inputs every
/// step. This module is the column-store answer: a merge join that reads
/// the sorted (and run-length-encoded) representation directly, with zero
/// hash builds.
///
/// Semantics are *bit-identical* to the hash joins (exec/hash_join.h,
/// exec/parallel.h): probe-row-major output, build matches in ascending
/// build-row order, SQL NULL keys never match, DOUBLE keys compared under
/// the CompareRows total order (NaN equals itself, exactly like
/// JoinKeysEqual). The parallel driver splits the probe side into morsels
/// whose boundaries depend only on `morsel_rows` and the data — each fixed
/// grain boundary is extended to the next key-group boundary — so results
/// are bit-identical at any thread count.
///
/// Order is *established*, never assumed: `TableSortedOnKeys` accepts the
/// declared metadata (Table::sort_order / Column::sorted_ascending / RLE
/// runs — the trusted physical-design contract, like zone maps) and
/// otherwise verifies with one comparison pass. `ParallelMergeJoinOp`
/// falls back to the parallel hash join when the inputs turn out
/// unsorted, so the planner's static order claims can only cost a
/// fallback, never correctness.

#ifndef VERTEXICA_EXEC_MERGE_JOIN_H_
#define VERTEXICA_EXEC_MERGE_JOIN_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/parallel.h"

namespace vertexica {

// PlanBuilder::Join consults the `merge_join` knob (MergeJoinEnabled,
// exec/exec_knobs.h), so one ScopedMergeJoin(false) turns the order-aware
// path off for an entire run (ablation benches and tests).

/// \name Join-path accounting
///
/// Thread-local collector the join kernels report into: which physical
/// path ran, rows emitted, and wall-clock inside the kernel. The
/// coordinator installs one per superstep and publishes the counters via
/// SuperstepStats, so bench output shows merge-vs-hash per step.
/// @{
struct JoinPathStats {
  int64_t merge_joins = 0;      ///< merge-join kernel invocations
  int64_t hash_joins = 0;       ///< hash-join kernel invocations
  int64_t merge_rows = 0;       ///< rows emitted by merge joins
  int64_t hash_rows = 0;        ///< rows emitted by hash joins
  double merge_seconds = 0.0;   ///< wall-clock inside merge kernels
  double hash_seconds = 0.0;    ///< wall-clock inside hash kernels
};

/// \brief The innermost collector installed on this thread; nullptr when
/// none. Kernels add to it from the thread that drains the operator (the
/// per-morsel fan-out happens inside the kernel, so no locking is needed).
JoinPathStats* AmbientJoinStats();

/// \brief RAII installation of a collector for the current thread.
class ScopedJoinStatsCollector {
 public:
  explicit ScopedJoinStatsCollector(JoinPathStats* stats);
  ~ScopedJoinStatsCollector();
  ScopedJoinStatsCollector(const ScopedJoinStatsCollector&) = delete;
  ScopedJoinStatsCollector& operator=(const ScopedJoinStatsCollector&) =
      delete;

 private:
  JoinPathStats* prev_;
};
/// @}

/// \brief True when `order` covers `keys` as a prefix, in sequence and
/// all ascending — the planner-side test for merge-join eligibility.
bool OrderPrefixCovers(const std::vector<OrderKey>& order,
                       const std::vector<std::string>& keys);

/// \brief Establishes that `t` is lexicographically nondecreasing on
/// `key_cols` under CompareRows: declared metadata first (table order
/// prefix; for a single key also the column's sorted flag or its RLE run
/// values), else one verification pass over the key columns.
bool TableSortedOnKeys(const Table& t, const std::vector<int>& key_cols);

/// \brief Morsel-parallel sort-merge join. Precondition: both inputs are
/// sorted on their key columns (see TableSortedOnKeys) and key column
/// types match pairwise; `ParallelMergeJoinOp` checks both and falls back
/// to the hash join instead of calling this.
///
/// Output is bit-identical to ParallelHashJoin/HashJoinOp on the same
/// inputs, at any thread count, and carries the probe side's sort order.
/// When the build key column is RLE-encoded (the edge table's src), whole
/// runs are matched without decoding the key column.
Result<Table> ParallelMergeJoin(const Table& probe, const Table& build,
                                const std::vector<std::string>& probe_keys,
                                const std::vector<std::string>& build_keys,
                                JoinType type = JoinType::kInner,
                                const ParallelOptions& options = {});

/// \brief Operator wrapper built by PlanBuilder::Join when both children
/// declare compatible output orders: materializes both sides (reusing the
/// whole-table scan snapshot when possible, see CollectShared),
/// re-establishes sortedness, and merges — or falls back to
/// ParallelHashJoin. Either path reports to AmbientJoinStats.
class ParallelMergeJoinOp : public Operator {
 public:
  ParallelMergeJoinOp(OperatorPtr probe, OperatorPtr build,
                      std::vector<std::string> probe_keys,
                      std::vector<std::string> build_keys,
                      JoinType type = JoinType::kInner,
                      ParallelOptions options = {});

  const Schema& output_schema() const override { return schema_; }
  Result<std::optional<Table>> Next() override;

  // Probe-row-major output: the probe side's order survives the join.
  std::vector<OrderKey> output_order() const override {
    return probe_->output_order();
  }

  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {probe_.get(), build_.get()};
  }

 private:
  OperatorPtr probe_;
  OperatorPtr build_;
  std::vector<std::string> probe_keys_;
  std::vector<std::string> build_keys_;
  JoinType type_;
  ParallelOptions options_;
  Schema schema_;
  Status init_status_;
  bool done_ = false;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_MERGE_JOIN_H_
