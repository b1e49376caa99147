#include "vertexica/coordinator.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>

#include "catalog/catalog_io.h"
#include "common/cancel.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "exec/exec_knobs.h"
#include "exec/merge_join.h"
#include "exec/parallel.h"
#include "exec/plan_builder.h"
#include "storage/compression.h"
#include "storage/partition.h"
#include "storage/sort.h"
#include "udf/transform.h"
#include "vertexica/worker.h"

namespace vertexica {

// storage/ cannot see udf/, so the default ShardingSpec hard-codes the
// vertex-batching partition count; pin the two constants together here,
// where both headers are visible — the shard/batch alignment invariant
// (shards = contiguous blocks of the batching partitions) depends on it.
static_assert(ShardingSpec{}.base_partitions == kDefaultTransformPartitions,
              "ShardingSpec::base_partitions must default to the "
              "vertex-batching partition count");

namespace {

/// A word of eight halted flags, all set: AppendBool stores canonical 0/1
/// bytes, so an all-halted 8-byte word compares equal to this.
constexpr uint64_t kAllHalted = 0x0101010101010101ull;

/// True when every vertex has voted to halt. With `halted_count` the scan
/// also counts the halted vertices (one full pass — the frontier path's
/// threshold decision reuses this instead of a second traversal); without
/// it the scan exits at the first non-halted vertex.
bool AllHalted(const Table& vertex, int64_t* halted_count = nullptr) {
  const Column* halted = vertex.ColumnByName("halted");
  if (halted == nullptr) {
    if (halted_count != nullptr) *halted_count = 0;
    return false;
  }
  // Encoded as loaded (the catalog's load-time encoding, until the first
  // apply rewrites the column plain): one comparison per run instead of
  // per vertex (an all-halted column is a single run).
  if (const auto* runs = halted->rle_runs()) {
    int64_t count = 0;
    for (const RleRun& run : *runs) {
      if (run.value != 0) {
        count += run.length;
      } else if (halted_count == nullptr) {
        return false;
      }
    }
    if (halted_count != nullptr) *halted_count = count;
    return count == vertex.num_rows();
  }
  // Plain path, word-at-a-time: an all-halted word compares equal to
  // kAllHalted and the per-word halted count is just its popcount.
  const std::vector<uint8_t>& bytes = halted->bools();
  const size_t n = bytes.size();
  int64_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof(word));
    if (halted_count == nullptr) {
      if (word != kAllHalted) return false;
    } else {
      count += __builtin_popcountll(word);
    }
  }
  for (; i < n; ++i) {
    if (bytes[i] != 0) {
      ++count;
    } else if (halted_count == nullptr) {
      return false;
    }
  }
  if (halted_count != nullptr) *halted_count = count;
  return halted_count == nullptr || count == static_cast<int64_t>(n);
}

/// Actual vs. plain footprint of a stored table (SuperstepStats counters).
void AccountTableBytes(const Table& t, int64_t* encoded, int64_t* decoded) {
  for (int c = 0; c < t.num_columns(); ++c) {
    *encoded += EncodedByteSize(t.column(c));
    *decoded += UncompressedByteSize(t.column(c));
  }
}

/// Catalog name of the checkpoint superstep marker.
std::string MarkerName(const GraphTableNames& names) {
  return names.vertex + "__vx_next_superstep";
}

/// True when `t`'s declared sort order starts with the column named
/// `name`, ascending — the check behind propagating the stored tables'
/// sorted invariants into the superstep join inputs.
bool OrderedByColumn(const Table& t, const std::string& name) {
  if (t.sort_order().empty()) return false;
  const SortKey& k = t.sort_order()[0];
  return k.ascending && t.schema().field(k.column).name == name;
}

/// The active set of one superstep over one vertex/message (shard) pair:
/// one bit per vertex row, plus its popcount.
struct Frontier {
  Bitvector bits;
  int64_t active = 0;
};

/// Decides whether a superstep should take the sparse frontier path and, if
/// so, derives the active set: non-halted vertices ∪ message receivers —
/// exactly the vertices whose Compute the worker would run (worker.cc's
/// activity rule), so restricting the input to them cannot change any
/// output row.
///
/// Gates, cheapest first: the knob (`mode` off) and superstep 0 (everything
/// is active by definition). Receiver lookup is a binary search per message
/// destination over the id column: the vertex table is sorted by id for the
/// whole run (Coordinator::Run establishes the order, and both the in-place
/// update and the replace rebuild keep it), on either input path. Under
/// `auto` the halted scan short-circuits the build: active ≥ non-halted, so
/// a non-halted fraction above `threshold` is already a dense verdict
/// before any bit is set.
bool ComputeFrontier(const Table& vertex, const Table& message,
                     FrontierMode mode, int superstep, double threshold,
                     Frontier* out) {
  if (mode == FrontierMode::kOff || superstep == 0) return false;
  VX_DCHECK(OrderedByColumn(vertex, "id"));
  const int64_t num_vertices = vertex.num_rows();
  if (num_vertices == 0) return false;
  const double budget =
      threshold * static_cast<double>(num_vertices);  // auto-mode bound

  int64_t halted_rows = 0;
  AllHalted(vertex, &halted_rows);
  const int64_t non_halted = num_vertices - halted_rows;
  if (mode == FrontierMode::kAuto &&
      static_cast<double>(non_halted) > budget) {
    return false;
  }

  Bitvector bits(num_vertices);
  // Non-halted vertices (none to find when the count above says so): RLE
  // runs when encoded, otherwise word-at-a-time, testing single flags only
  // inside words that are not all halted.
  const Column* halted = vertex.ColumnByName("halted");
  if (halted != nullptr && non_halted > 0) {
    if (const auto* runs = halted->rle_runs()) {
      const auto& starts = *halted->rle_run_starts();
      for (size_t k = 0; k < runs->size(); ++k) {
        if ((*runs)[k].value != 0) continue;
        const int64_t end = starts[k] + (*runs)[k].length;
        for (int64_t r = starts[k]; r < end; ++r) bits.Set(r);
      }
    } else {
      const uint8_t* bytes = halted->bools().data();
      int64_t r = 0;
      for (; r + 8 <= num_vertices; r += 8) {
        uint64_t word;
        std::memcpy(&word, bytes + r, sizeof(word));
        if (word == kAllHalted) continue;
        for (int64_t k = r; k < r + 8; ++k) {
          if (bytes[k] == 0) bits.Set(k);
        }
      }
      for (; r < num_vertices; ++r) {
        if (bytes[r] == 0) bits.Set(r);
      }
    }
  }

  // Message receivers, binary-searched against the sorted id column.
  // Destinations outside the vertex table (orphan messages) set no bit;
  // the full message table is passed through either way and the worker
  // skips those groups identically on both paths. One search per RLE run
  // when the dst column is encoded; consecutive-duplicate skip otherwise
  // (the join path keeps messages sorted by receiver).
  const Column* dst = message.ColumnByName("dst");
  if (dst != nullptr && message.num_rows() > 0) {
    const auto& ids = vertex.ColumnByName("id")->ints();
    const auto set_receiver = [&](int64_t d) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), d);
      if (it != ids.end() && *it == d) bits.Set(it - ids.begin());
    };
    if (const auto* runs = dst->rle_runs()) {
      for (const RleRun& run : *runs) set_receiver(run.value);
    } else {
      const auto& dsts = dst->ints();
      for (size_t r = 0; r < dsts.size(); ++r) {
        if (r > 0 && dsts[r] == dsts[r - 1]) continue;
        set_receiver(dsts[r]);
      }
    }
  }

  const int64_t active = bits.CountOnes();
  if (mode == FrontierMode::kAuto && static_cast<double>(active) > budget) {
    return false;
  }
  out->bits = std::move(bits);
  out->active = active;
  return true;
}

/// Projection of an edge table onto the union schema (§2.3 "Table
/// Unions"): (id = src, kind = edge, other = dst, halted = false,
/// p0 = weight, p1.. = 0).
std::vector<ProjectionSpec> EdgeUnionProjection(int arity) {
  std::vector<ProjectionSpec> proj = {
      {"id", Col("src")},
      {"kind", Lit(static_cast<int64_t>(kEdgeTuple))},
      {"other", Col("dst")},
      {"halted", Lit(false)}};
  for (int i = 0; i < arity; ++i) {
    proj.push_back({StringFormat("p%d", i),
                    i == 0 ? Col("weight") : Lit(0.0)});
  }
  return proj;
}

/// Fused-split projection of the worker output onto vertex updates:
/// (id, halted, v0..v{va-1}).
std::vector<ProjectionSpec> UpdateProjection(int va) {
  std::vector<ProjectionSpec> proj = {{"id", Col("id")},
                                      {"halted", Col("halted")}};
  for (int i = 0; i < va; ++i) {
    proj.push_back({StringFormat("v%d", i), Col(StringFormat("p%d", i))});
  }
  return proj;
}

/// Fused-split projection of the worker output onto new messages:
/// (src, dst, m0..m{ma-1}); sender is `other`, receiver is `id`.
std::vector<ProjectionSpec> MessageProjection(int ma) {
  std::vector<ProjectionSpec> proj = {{"src", Col("other")},
                                      {"dst", Col("id")}};
  for (int i = 0; i < ma; ++i) {
    proj.push_back({StringFormat("m%d", i), Col(StringFormat("p%d", i))});
  }
  return proj;
}

/// One pass over a worker-output table: the active-vertex count plus the
/// kind-3 aggregator partial rows as (aggregator index, partial) pairs in
/// row order. Collected rather than merged so the coordinator can replay
/// the merges across shards in global row order — the same fold sequence
/// at every shard count.
struct WorkerOutputScan {
  int64_t active = 0;
  std::vector<std::pair<int64_t, double>> aggregate_rows;
};

WorkerOutputScan ScanWorkerOutput(const Table& out) {
  WorkerOutputScan scan;
  const auto& kinds = out.column(1).ints();
  const auto& others = out.column(2).ints();
  const auto& p0 = out.column(4).doubles();
  for (int64_t r = 0; r < out.num_rows(); ++r) {
    const auto sr = static_cast<size_t>(r);
    if (kinds[sr] == kVertexTuple) {
      ++scan.active;
    } else if (kinds[sr] == kAggregateTuple) {
      scan.aggregate_rows.emplace_back(others[sr], p0[sr]);
    }
  }
  return scan;
}

/// The fused σ→π worker-output split of one shard: vertex updates, new
/// messages, and the aggregate scan.
struct SplitOutputs {
  Table updates;
  Table messages;
  WorkerOutputScan scan;
};

Result<SplitOutputs> SplitWorkerOutput(const std::shared_ptr<const Table>& out,
                                       int va, int ma) {
  SplitOutputs split;
  // Vertex updates: kind=0 rows with other=1 (state actually changed).
  VX_ASSIGN_OR_RETURN(
      split.updates,
      ParallelFilterProject(
          out,
          And(Eq(Col("kind"), Lit(static_cast<int64_t>(kVertexTuple))),
              Eq(Col("other"), Lit(int64_t{1}))),
          UpdateProjection(va)));
  // New messages: kind=2 rows; sender is `other`, receiver is `id`.
  VX_ASSIGN_OR_RETURN(
      split.messages,
      ParallelFilterProject(
          out, Eq(Col("kind"), Lit(static_cast<int64_t>(kMessageTuple))),
          MessageProjection(ma)));
  split.scan = ScanWorkerOutput(*out);
  return split;
}

/// Folds collected aggregator partials into `aggregates` in the order
/// given — callers pass rows in global worker-output row order.
void MergeAggregateRows(const std::vector<AggregatorSpec>& agg_specs,
                        const std::vector<std::pair<int64_t, double>>& rows,
                        std::map<std::string, double>* aggregates) {
  for (const auto& [index, partial] : rows) {
    const auto idx = static_cast<size_t>(index);
    if (idx < agg_specs.size()) {
      const auto& spec = agg_specs[idx];
      double& slot = (*aggregates)[spec.name];
      slot = MergeAggregate(spec.kind, slot, partial);
    }
  }
}

AggOp CombinerToAggOp(MessageCombiner c) {
  switch (c) {
    case MessageCombiner::kSum:
      return AggOp::kSum;
    case MessageCombiner::kMin:
      return AggOp::kMin;
    case MessageCombiner::kMax:
      return AggOp::kMax;
    case MessageCombiner::kNone:
      break;
  }
  return AggOp::kSum;
}

/// Per-shard edge structures, derived from the resident edge shard the
/// first superstep that needs them and kept for the run. `join_side` is the
/// join-input path's (esrc, edst, eweight, edge_seq) side; `union_edges` is
/// the union path's edge section in worker-input form (projected to the
/// union schema, scattered and sorted once; every union-path superstep,
/// dense or frontier, merges it into each partition by key). Race-free
/// without locks: a shard's slot is touched only by the one ParallelFor
/// task that owns that shard in a superstep, and cross-superstep visibility
/// rides the pool's submit/join synchronization.
struct EdgeShard {
  std::shared_ptr<const Table> join_side;
  std::shared_ptr<const ResidentPartitions> union_edges;
};

/// Publishes a resident shard set to the catalog as one table sorted on the
/// column `key` (checkpoints and run end). A single shard already in that
/// order is published as the resident snapshot itself. Otherwise the shards
/// are concatenated in shard order and stable-sorted — hash blocks
/// interleave keys; the sort is key-only and stable, so values and each
/// key's row order are unchanged — then re-encoded.
Status PublishSorted(Catalog* catalog, const std::string& name,
                     const PartitionSet& set, const std::string& key,
                     EncodingMode mode) {
  if (set.num_shards() == 1 && OrderedByColumn(*set.shard(0), key)) {
    VX_DCHECK_OK(set.shard(0)->CheckInvariants());
    return catalog->ReplaceTable(name, set.shard(0));
  }
  Table table(set.shard(0)->schema());
  for (int s = 0; s < set.num_shards(); ++s) {
    VX_RETURN_NOT_OK(table.Append(*set.shard(s)));
  }
  VX_ASSIGN_OR_RETURN(int key_c, table.ColumnIndex(key));
  table = SortTable(table, {{key_c, true}});
  if (mode != EncodingMode::kOff) table.EncodeColumns(mode);
  // Post-flush audit: the published table is what catalog readers (and a
  // resumed run) trust from here on.
  VX_DCHECK_OK(table.CheckInvariants());
  return catalog->ReplaceTable(name, std::move(table));
}

/// The superstep a restored checkpoint marker names. The marker comes off
/// disk, so its shape is checked before it is read: exactly one non-null
/// INT64 value in [0, INT_MAX].
Result<int> ReadCheckpointMarker(const Table& marker,
                                 const std::string& name) {
  const bool well_formed =
      marker.num_columns() == 1 && marker.num_rows() == 1 &&
      marker.column(0).type() == DataType::kInt64 &&
      !marker.column(0).IsNull(0) && marker.column(0).GetInt64(0) >= 0 &&
      marker.column(0).GetInt64(0) <= std::numeric_limits<int>::max();
  if (!well_formed) {
    return Status::InvalidArgument(StringFormat(
        "checkpoint marker table '%s' must hold exactly one non-null INT64 "
        "superstep >= 0",
        name.c_str()));
  }
  return static_cast<int>(marker.column(0).GetInt64(0));
}

}  // namespace

Coordinator::Coordinator(Catalog* catalog, VertexProgram* program,
                         VertexicaOptions options, GraphTableNames names)
    : catalog_(catalog),
      program_(program),
      options_(options),
      names_(std::move(names)) {}

Result<Table> Coordinator::BuildUnionInput(const TablePtr& vertex,
                                           const TablePtr& message) const {
  const int va = program_->value_arity();
  const int ma = program_->message_arity();
  const int arity = PayloadArity(*program_);

  // §2.3 "Table Unions": the three inputs are renamed to a common schema
  // and unioned instead of joined. The vertex and message sections are
  // projected morsel-parallel here and concatenated (UNION ALL); the edge
  // section is built once per run (BuildResidentEdges) and merged in by
  // the worker transform.
  std::vector<ProjectionSpec> vproj = {
      {"id", Col("id")},
      {"kind", Lit(static_cast<int64_t>(kVertexTuple))},
      {"other", Lit(int64_t{-1})},
      {"halted", Col("halted")}};
  for (int i = 0; i < arity; ++i) {
    vproj.push_back({StringFormat("p%d", i),
                     i < va ? Col(StringFormat("v%d", i)) : Lit(0.0)});
  }
  std::vector<ProjectionSpec> mproj = {
      {"id", Col("dst")},
      {"kind", Lit(static_cast<int64_t>(kMessageTuple))},
      {"other", Col("src")},
      {"halted", Lit(false)}};
  for (int i = 0; i < arity; ++i) {
    mproj.push_back({StringFormat("p%d", i),
                     i < ma ? Col(StringFormat("m%d", i)) : Lit(0.0)});
  }

  VX_ASSIGN_OR_RETURN(Table input, ParallelProject(vertex, vproj));
  VX_ASSIGN_OR_RETURN(Table msg_part, ParallelProject(message, mproj));
  VX_RETURN_NOT_OK(input.Append(msg_part));
  return input;
}

Result<std::shared_ptr<const ResidentPartitions>>
Coordinator::BuildResidentEdges(const TablePtr& edge,
                                const TransformOptions& topts) const {
  VX_ASSIGN_OR_RETURN(
      Table edges,
      ParallelProject(edge, EdgeUnionProjection(PayloadArity(*program_))));
  VX_ASSIGN_OR_RETURN(ResidentPartitions resident,
                      BuildResidentPartitions(edges, 0, topts));
  return std::make_shared<const ResidentPartitions>(std::move(resident));
}

Result<Coordinator::TablePtr> Coordinator::BuildEdgeJoinSide(
    const TablePtr& edge) const {
  // The edge side is identical every superstep (the coordinator never
  // rewrites the edge table): project/number/declare it once per run and
  // reuse the shared snapshot. The esrc key column is re-encoded RLE —
  // one run per source vertex on the (src, dst)-sorted layout — so the
  // merge join matches whole runs without decoding it.
  VX_ASSIGN_OR_RETURN(Table edges,
                      ParallelProject(edge, {{"esrc", Col("src")},
                                             {"edst", Col("dst")},
                                             {"eweight", Col("weight")}}));
  edges = WithRowNumbers(edges, "edge_seq");
  if (AmbientEncodingMode() != EncodingMode::kOff) {
    edges.mutable_column(0)->Encode(AmbientEncodingMode());
  }
  if (edge->OrderCoversKeys({0, 1})) {
    edges.SetSortOrder({{0, true}, {1, true}});
  } else if (OrderedByColumn(*edge, "src")) {
    edges.SetSortOrder({{0, true}});
  }
  return std::make_shared<const Table>(std::move(edges));
}

Result<Table> Coordinator::BuildJoinInputWithEdgeSide(
    const TablePtr& vertex, const TablePtr& edge_side,
    const TablePtr& message) const {
  const int ma = program_->message_arity();

  // The "traditional database wisdom" plan §2.3 argues against: a 3-way
  // join of vertex ⟕ message ⟕ edge. Sequence-number columns let the worker
  // undo the |messages| × |edges| fan-out per vertex. The projections run
  // morsel-parallel and the left joins are the parallel hash joins behind
  // PlanBuilder::Join.
  std::vector<ProjectionSpec> mproj = {{"mdst", Col("dst")},
                                       {"msender", Col("src")}};
  for (int i = 0; i < ma; ++i) {
    mproj.push_back({StringFormat("mm%d", i), Col(StringFormat("m%d", i))});
  }
  VX_ASSIGN_OR_RETURN(Table msgs, ParallelProject(message, mproj));
  msgs = WithRowNumbers(msgs, "msg_seq");

  // Propagate the stored message table's sorted invariant onto the
  // projected side (projection and row-numbering preserve row order):
  // message is kept sorted by receiver. With the vertex table sorted by
  // id and the cached edge side, the planner turns both left joins into
  // merge joins — zero hash builds per superstep (exec/merge_join.h).
  if (OrderedByColumn(*message, "dst")) msgs.SetSortOrder({{0, true}});

  // vertex columns: id, halted, v0..v{va-1}; the JoinWorker resolves them
  // by name.
  return PlanBuilder::Scan(vertex)
      .Join(PlanBuilder::Scan(std::move(msgs)), {"id"}, {"mdst"},
            JoinType::kLeft)
      .Join(PlanBuilder::Scan(edge_side), {"id"}, {"esrc"},
            JoinType::kLeft)
      .Execute();
}

Result<Table> Coordinator::BuildUnionInputFrontier(
    const TablePtr& vertex, const TablePtr& message,
    const Bitvector& frontier) const {
  // Restrict the vertex section to the active rows; the resident edge
  // section then contributes exactly their edges (ApplyTransform merges by
  // key). Inactive vertices contribute no worker output, so dropping their
  // rows is unobservable. The message section is passed through whole:
  // every in-table receiver is in the frontier by construction, and orphan
  // receivers are skipped by the worker on both paths.
  return BuildUnionInput(
      std::make_shared<const Table>(vertex->Take(frontier.SetIndices())),
      message);
}

Result<Table> Coordinator::BuildJoinInputFrontier(
    const TablePtr& vertex, const TablePtr& edge_side,
    const TablePtr& message, const Bitvector& frontier) const {
  // Only the probe (vertex) side is restricted; the message and edge build
  // sides stay whole, so their msg_seq/edge_seq numbering — what the worker
  // uses to undo the join fan-out — is untouched. Join output is
  // probe-row-major, so dropping probe rows that produce no worker output
  // leaves the surviving rows' relative order (and the per-vertex streams)
  // bit-identical to the dense plan's.
  Table active = vertex->Take(frontier.SetIndices());
  // Take conservatively drops the declared order, but the gather indices
  // are ascending over an id-sorted table (a run-wide invariant) — the
  // restriction is still id-sorted; re-declare it so the superstep joins
  // keep merging.
  VX_ASSIGN_OR_RETURN(int id_c, active.ColumnIndex("id"));
  active.SetSortOrder({{id_c, true}});
  return BuildJoinInputWithEdgeSide(
      std::make_shared<const Table>(std::move(active)), edge_side, message);
}

Status Coordinator::UpdateVerticesInPlace(Table* vertex,
                                          const Table& updates) const {
  const int va = program_->value_arity();
  // The vertex table is sorted by id for the whole run (see Run), so each
  // update finds its row by binary search over the id column: the scatter
  // costs O(updates · log V), with no per-superstep index over all ids.
  VX_DCHECK(OrderedByColumn(*vertex, "id"));
  VX_ASSIGN_OR_RETURN(int id_c, vertex->ColumnIndex("id"));
  VX_ASSIGN_OR_RETURN(int halted_c, vertex->ColumnIndex("halted"));
  const auto& ids = vertex->column(id_c).ints();

  auto& halted = *vertex->mutable_column(halted_c)->mutable_bools();
  std::vector<std::vector<double>*> vcols(static_cast<size_t>(va));
  for (int i = 0; i < va; ++i) {
    VX_ASSIGN_OR_RETURN(int c, vertex->ColumnIndex(StringFormat("v%d", i)));
    vcols[static_cast<size_t>(i)] =
        vertex->mutable_column(c)->mutable_doubles();
  }

  VX_ASSIGN_OR_RETURN(int uid_c, updates.ColumnIndex("id"));
  VX_ASSIGN_OR_RETURN(int uhalted_c, updates.ColumnIndex("halted"));
  std::vector<const std::vector<double>*> ucols(static_cast<size_t>(va));
  for (int i = 0; i < va; ++i) {
    VX_ASSIGN_OR_RETURN(int c, updates.ColumnIndex(StringFormat("v%d", i)));
    ucols[static_cast<size_t>(i)] = &updates.column(c).doubles();
  }

  // Morsel-parallel scatter: worker output contains at most one update row
  // per vertex, so every target row is written by exactly one morsel.
  const auto& uids = updates.column(uid_c).ints();
  const auto& uhalted = updates.column(uhalted_c).bools();
  // ambient-ok: the lambda reads no knobs; ExecThreads() below is the
  // thread-count argument, evaluated on the submitting thread.
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, static_cast<size_t>(updates.num_rows()),
      static_cast<size_t>(kDefaultMorselRows),
      [&](size_t begin, size_t end) {
        for (size_t su = begin; su < end; ++su) {
          const auto it = std::lower_bound(ids.begin(), ids.end(), uids[su]);
          if (it == ids.end() || *it != uids[su]) continue;
          const auto sr = static_cast<size_t>(it - ids.begin());
          halted[sr] = uhalted[su];
          for (int i = 0; i < va; ++i) {
            (*vcols[static_cast<size_t>(i)])[sr] =
                (*ucols[static_cast<size_t>(i)])[su];
          }
        }
        return Status::OK();
      },
      ExecThreads()));
  // The scatter rewrites halted/value cells but never moves rows or touches
  // ids, so the id order survives; re-declare it after the mutable_column
  // accesses above conservatively dropped it. (Only the id key is safe to
  // re-declare — the other columns are exactly the ones rewritten.)
  vertex->SetSortOrder({{id_c, true}});
  return Status::OK();
}

Result<Table> Coordinator::CombineMessages(Table messages) const {
  if (!options_.use_combiner ||
      program_->combiner() == MessageCombiner::kNone ||
      messages.num_rows() == 0) {
    return messages;
  }
  const int ma = program_->message_arity();
  const AggOp op = CombinerToAggOp(program_->combiner());
  std::vector<AggSpec> specs;
  for (int i = 0; i < ma; ++i) {
    specs.push_back({op, StringFormat("m%d", i), StringFormat("m%d", i)});
  }
  std::vector<ProjectionSpec> cproj = {{"src", Lit(int64_t{-1})},
                                       {"dst", Col("dst")}};
  for (int i = 0; i < ma; ++i) {
    cproj.push_back({StringFormat("m%d", i), Col(StringFormat("m%d", i))});
  }
  return PlanBuilder::Scan(std::move(messages))
      .Aggregate({"dst"}, std::move(specs))
      .Project(std::move(cproj))
      .Execute();
}

Result<Table> Coordinator::RebuildVertices(const Table& vertex,
                                           const Table& updates) const {
  // §2.3 replace path: new_vertex = (vertex ANTI JOIN updates) ∪ updates,
  // i.e. a bulk rebuild instead of row updates.
  return PlanBuilder::Scan(vertex)
      .Join(PlanBuilder::Scan(updates).Select({"id"}), {"id"}, {"id"},
            JoinType::kAnti)
      .Union(PlanBuilder::Scan(updates))
      .Execute();
}

Status Coordinator::RestoreSortedInvariant(const std::string& table_name,
                                           const std::vector<std::string>& keys,
                                           bool sort_unsorted) const {
  if (!catalog_->HasTable(table_name)) return Status::OK();
  VX_ASSIGN_OR_RETURN(auto table, catalog_->GetTable(table_name));
  std::vector<SortKey> order;
  std::vector<int> cols;
  for (const std::string& k : keys) {
    VX_ASSIGN_OR_RETURN(int c, table->ColumnIndex(k));
    cols.push_back(c);
    order.push_back({c, true});
  }
  if (table->OrderCoversKeys(cols)) return Status::OK();  // already declared
  if (!TableSortedOnKeys(*table, cols)) {
    // Not in key order (e.g. a catalog table built in arbitrary row order):
    // sort it once, stably, when asked; otherwise leave it — the
    // per-superstep maintenance re-sorts what it needs.
    if (!sort_unsorted) return Status::OK();
    return catalog_->ReplaceTable(table_name, SortTable(*table, order));
  }
  // ReplaceTable needs a value, so attaching the declaration costs one
  // table copy — paid once per run, and only when the declaration is
  // missing (i.e. a checkpoint-restored catalog), never on a fresh load.
  Table declared = *table;
  declared.SetSortOrder(std::move(order));
  return catalog_->ReplaceTable(table_name, std::move(declared));
}

Status Coordinator::Run(RunStats* stats) {
  const int va = program_->value_arity();
  const int ma = program_->message_arity();
  const int arity = PayloadArity(*program_);
  if (va <= 0 || ma <= 0) {
    return Status::InvalidArgument("vertex program arities must be positive");
  }

  const auto agg_specs = program_->aggregators();
  prev_aggregates_.clear();

  // Knobs are resolved once per run and reinstalled inside every shard
  // task: pool threads don't inherit the caller's thread-local knobs.
  const ExecKnobs knobs = ExecKnobs::Capture();

  // The sorted-invariant maintenance below is gated on the join-input
  // path only — NOT on the merge-join knob — so toggling the knob
  // (ScopedMergeJoin / VERTEXICA_MERGE_JOIN) swaps exactly one thing: the
  // physical join operator. Table row orders, worker inputs, and
  // therefore results are bit-identical by construction between the two
  // paths.

  // A restored checkpoint carries the rows but not the sort-order
  // declarations (catalog_io persists none); re-establish them up front
  // (one verification pass per table) so a resumed run merges like a
  // fresh one instead of silently hashing to the end.
  //
  // The vertex table's id order is a run-wide invariant on both input
  // paths (the in-place update and the frontier binary-search it), so a
  // vertex table in any other order is stable-sorted once here. Its row
  // order cannot change a result: every id owns exactly one row, and
  // worker input is stable-sorted by id per partition.
  VX_RETURN_NOT_OK(
      RestoreSortedInvariant(names_.vertex, {"id"}, /*sort_unsorted=*/true));
  if (!options_.use_union_input) {
    VX_RETURN_NOT_OK(RestoreSortedInvariant(names_.edge, {"src", "dst"},
                                            /*sort_unsorted=*/false));
    VX_RETURN_NOT_OK(RestoreSortedInvariant(names_.message, {"dst"},
                                            /*sort_unsorted=*/false));
  }

  // §1 durability: resume from a checkpoint marker restored by LoadCatalog.
  const std::string marker_name = MarkerName(names_);
  int first_superstep = 0;
  if (options_.resume_from_checkpoint && catalog_->HasTable(marker_name)) {
    VX_ASSIGN_OR_RETURN(auto marker, catalog_->GetTable(marker_name));
    VX_ASSIGN_OR_RETURN(first_superstep,
                        ReadCheckpointMarker(*marker, marker_name));
  }

  // The shard count is capped at the vertex-batching partition count —
  // shards are contiguous blocks of those partitions, which is what makes
  // results bit-identical at any shard count (storage/partition.h).
  ShardingSpec sharding;
  sharding.base_partitions = options_.num_partitions > 0
                             ? options_.num_partitions
                             : kDefaultTransformPartitions;
  sharding.num_shards = std::min(
      options_.num_shards > 0 ? options_.num_shards : knobs.shards,
      sharding.base_partitions);
  const int num_shards = sharding.num_shards;
  const auto num_shards_z = static_cast<size_t>(num_shards);

  // Timer starts before the shard setup: the once-per-run partitioning is
  // part of the run's cost.
  WallTimer total_timer;

  // ---- Resident shards, built once per run. ---------------------------
  // Vertex shards by id, edge shards by src, message shards by dst: every
  // worker-input tuple's batching key is its owning vertex, so each shard's
  // input hashes into exactly that shard's block of the vertex-batching
  // partitions. PartitionSet::Build retains sort-order declarations and
  // (ambient-mode permitting) encodings + zone maps per shard, and at one
  // shard holds the catalog snapshot itself. Build self-audits each set
  // (the post-scatter audit).
  VX_ASSIGN_OR_RETURN(auto vertex0, catalog_->GetTable(names_.vertex));
  VX_ASSIGN_OR_RETURN(auto edge0, catalog_->GetTable(names_.edge));
  VX_ASSIGN_OR_RETURN(auto message0, catalog_->GetTable(names_.message));
  VX_ASSIGN_OR_RETURN(int vid_c, vertex0->ColumnIndex("id"));
  VX_ASSIGN_OR_RETURN(int esrc_c, edge0->ColumnIndex("src"));
  VX_ASSIGN_OR_RETURN(int mdst_c, message0->ColumnIndex("dst"));
  VX_ASSIGN_OR_RETURN(PartitionSet vertex,
                      PartitionSet::Build(std::move(vertex0), vid_c,
                                          sharding));
  VX_ASSIGN_OR_RETURN(PartitionSet edge,
                      PartitionSet::Build(std::move(edge0), esrc_c,
                                          sharding));
  VX_ASSIGN_OR_RETURN(PartitionSet message,
                      PartitionSet::Build(std::move(message0), mdst_c,
                                          sharding));
  std::vector<EdgeShard> edge_derived(num_shards_z);
  const int64_t total_vertices = vertex.total_rows();

  // Publishes the resident vertex and message shards (checkpoints, run end).
  const auto publish = [&]() -> Status {
    VX_RETURN_NOT_OK(
        PublishSorted(catalog_, names_.vertex, vertex, "id", knobs.encoding));
    return PublishSorted(catalog_, names_.message, message, "dst",
                         knobs.encoding);
  };

  for (int superstep = first_superstep;
       superstep < options_.max_supersteps; ++superstep) {
    // Superstep boundary: the natural stopping point of a cancelled or
    // past-deadline run — the catalog still holds the run's input or its
    // last checkpoint.
    VX_RETURN_NOT_OK(CheckAmbientCancel());
    VX_FAULT_POINT("coordinator.superstep");
    WallTimer step_timer;

    // Stored-procedure loop condition: "it runs as long as there is any
    // message for the next superstep" (plus Pregel's not-yet-halted rule).
    if (superstep > 0 && message.total_rows() == 0) {
      bool all_halted = true;
      for (int s = 0; s < num_shards && all_halted; ++s) {
        all_halted = AllHalted(*vertex.shard(s));
      }
      if (all_halted) break;
    }

    auto shared = std::make_shared<WorkerSharedState>();
    shared->program = program_;
    shared->superstep = superstep;
    shared->num_vertices = total_vertices;  // global count, not per shard
    shared->payload_arity = arity;
    shared->combiner = options_.use_combiner ? program_->combiner()
                                             : MessageCombiner::kNone;
    shared->prev_aggregates = &prev_aggregates_;
    for (const auto& spec : agg_specs) {
      shared->aggregator_kinds[spec.name] = spec.kind;
      shared->aggregator_names.push_back(spec.name);
    }

    // Vertex batching (§2.3): hash partition on vertex id (column 0), sort
    // each partition on id, and run the worker UDFs in parallel. Within a
    // shard the *global* partition count is used: a shard's rows only hash
    // into its own contiguous partition block, so the per-shard batches,
    // their order, and every per-vertex tuple stream are those of the
    // whole tables.
    TransformOptions topts;
    topts.num_workers = options_.num_workers;
    topts.num_partitions = sharding.base_partitions;
    topts.sort_columns = {0};
    TransformUdfFactory factory;
    if (options_.use_union_input) {
      factory = [shared]() -> std::unique_ptr<TransformUdf> {
        return std::make_unique<Worker>(shared);
      };
    } else {
      factory = [shared]() -> std::unique_ptr<TransformUdf> {
        return std::make_unique<JoinWorker>(shared);
      };
    }

    // ---- Per-shard dataflow: input → worker → split, shard-parallel. ---
    struct ShardStep {
      int64_t input_rows = 0;
      int64_t built_rows = 0;
      int64_t resident_edge_rows = 0;
      bool used_frontier = false;
      int64_t frontier_vertices = 0;
      double input_seconds = 0.0;
      double split_seconds = 0.0;
      Table updates;
      Table messages;
      WorkerOutputScan scan;
      JoinPathStats join_stats;
    };
    std::vector<ShardStep> step(num_shards_z);

    WallTimer phase_timer;
    VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
        0, num_shards_z, /*grain=*/1,
        [&](size_t begin, size_t end) -> Status {
          // Each shard reports joins into its own collector (the ambient
          // one is thread-local too).
          ScopedExecKnobs scoped_knobs(knobs);
          for (size_t s = begin; s < end; ++s) {
            ShardStep& st = step[s];
            ScopedJoinStatsCollector collector(&st.join_stats);
            const auto& vs = vertex.shard(static_cast<int>(s));
            const auto& es = edge.shard(static_cast<int>(s));
            const auto& ms = message.shard(static_cast<int>(s));
            EdgeShard& derived = edge_derived[s];

            // ---- Worker input: frontier (sparse) or dense build. ------
            // The frontier decision is part of the measured input phase:
            // deriving the active set is a cost the sparse path pays. It
            // is taken per shard — one dense hub shard doesn't force the
            // whole superstep dense — and is value-neutral either way.
            WallTimer shard_timer;
            Frontier frontier;
            const bool frontier_shard =
                ComputeFrontier(*vs, *ms, knobs.frontier, superstep,
                                options_.frontier_threshold, &frontier);
            // The frontier bitvector gates which vertices compute this
            // superstep; its word-tail hygiene is what the
            // popcount/AND/OR shortcuts assume.
            if (frontier_shard) {
              VX_DCHECK_OK(frontier.bits.CheckInvariants());
            }
            Table input;
            const ResidentPartitions* resident = nullptr;
            if (options_.use_union_input) {
              // The edge section never changes within a run, so it is laid
              // out in worker-input form once (the first superstep, dense
              // or frontier) and merged into each partition by key by
              // ApplyTransform; only vertex and message rows are built.
              if (derived.union_edges == nullptr) {
                VX_ASSIGN_OR_RETURN(derived.union_edges,
                                    BuildResidentEdges(es, topts));
                st.resident_edge_rows = derived.union_edges->rows.num_rows();
              }
              resident = derived.union_edges.get();
              if (frontier_shard) {
                VX_ASSIGN_OR_RETURN(
                    input, BuildUnionInputFrontier(vs, ms, frontier.bits));
              } else {
                VX_ASSIGN_OR_RETURN(input, BuildUnionInput(vs, ms));
              }
            } else {
              if (derived.join_side == nullptr) {
                VX_ASSIGN_OR_RETURN(derived.join_side, BuildEdgeJoinSide(es));
              }
              if (frontier_shard) {
                VX_ASSIGN_OR_RETURN(
                    input, BuildJoinInputFrontier(vs, derived.join_side, ms,
                                                  frontier.bits));
              } else {
                VX_ASSIGN_OR_RETURN(input, BuildJoinInputWithEdgeSide(
                                               vs, derived.join_side, ms));
              }
            }
            st.used_frontier = frontier_shard;
            st.frontier_vertices = frontier_shard ? frontier.active : 0;
            st.built_rows = input.num_rows() + st.resident_edge_rows;
            st.input_seconds = shard_timer.ElapsedSeconds();

            int64_t merged_edges = 0;
            VX_ASSIGN_OR_RETURN(Table out_table,
                                ApplyTransform(input, 0, factory, topts,
                                               resident, &merged_edges));
            st.input_rows = input.num_rows() + merged_edges;
            // Shared snapshot so the split scans range-scan it in parallel
            // without copying.
            const auto out =
                std::make_shared<const Table>(std::move(out_table));
            shard_timer.Restart();
            VX_ASSIGN_OR_RETURN(SplitOutputs split,
                                SplitWorkerOutput(out, va, ma));
            st.updates = std::move(split.updates);
            st.messages = std::move(split.messages);
            st.scan = std::move(split.scan);
            st.split_seconds = shard_timer.ElapsedSeconds();
          }
          return Status::OK();
        },
        knobs.threads));
    // Critical-path phase times of the shard-parallel span (see
    // SuperstepStats): the slowest shard's input build and split, and the
    // remainder as worker time.
    const double shard_seconds = phase_timer.ElapsedSeconds();
    double input_seconds = 0.0;
    double shard_split_seconds = 0.0;
    for (const ShardStep& st : step) {
      input_seconds = std::max(input_seconds, st.input_seconds);
      shard_split_seconds = std::max(shard_split_seconds, st.split_seconds);
    }
    shard_split_seconds =
        std::min(shard_split_seconds, shard_seconds - input_seconds);
    const double worker_seconds =
        shard_seconds - input_seconds - shard_split_seconds;
    phase_timer.Restart();

    // ---- Merge shard results in shard order. ---------------------------
    // Shards are contiguous partition blocks, so shard order *is* the
    // whole-table worker-output row order — the aggregate fold below
    // replays the same merge sequence at every shard count.
    int64_t input_rows = 0;
    int64_t worker_messages = 0;
    int64_t active = 0;
    int64_t total_updates = 0;
    std::map<std::string, double> new_aggregates;
    for (const auto& spec : agg_specs) {
      new_aggregates[spec.name] = AggregatorIdentity(spec.kind);
    }
    for (const ShardStep& st : step) {
      input_rows += st.input_rows;
      worker_messages += st.messages.num_rows();
      active += st.scan.active;
      total_updates += st.updates.num_rows();
      MergeAggregateRows(agg_specs, st.scan.aggregate_rows, &new_aggregates);
    }

    // ---- Message exchange. ----------------------------------------------
    // Phase boundary: a worker failure surfaces here in a distributed
    // deployment (ROADMAP #1), so the exchange carries a fault site.
    VX_FAULT_POINT("coordinator.exchange");
    // Concatenate the per-shard outputs in shard order (again the global
    // row order), combine globally (folding the workers' per-partition
    // partials when they combined at the sender) — identical combiner
    // input, identical FP fold — then scatter on receiver back to the shards. The scatter
    // preserves per-receiver order, and a per-shard stable sort by dst
    // equals the global sort restricted to the shard, so next superstep's
    // message streams are bit-identical at any shard count. One shard
    // moves its table through: nothing to concatenate or route.
    int64_t cross_shard = 0;
    Table produced;
    if (num_shards == 1) {
      produced = std::move(step[0].messages);
    } else {
      produced = Table(step[0].messages.schema());
      for (int s = 0; s < num_shards; ++s) {
        const Table& msgs = step[static_cast<size_t>(s)].messages;
        if (stats != nullptr) {
          // Boundary-crossing counter only: one hash per produced
          // message, skipped entirely when nobody collects stats.
          VX_ASSIGN_OR_RETURN(int pdst_c, msgs.ColumnIndex("dst"));
          const auto& dsts = msgs.column(pdst_c).ints();
          for (int64_t r = 0; r < msgs.num_rows(); ++r) {
            if (sharding.ShardOfKey(dsts[static_cast<size_t>(r)]) != s) {
              ++cross_shard;
            }
          }
        }
        VX_RETURN_NOT_OK(produced.Append(msgs));
      }
    }
    VX_ASSIGN_OR_RETURN(produced, CombineMessages(std::move(produced)));
    const int64_t messages_sent = produced.num_rows();
    std::vector<Table> inbound;
    if (num_shards == 1) {
      inbound.push_back(std::move(produced));
    } else {
      VX_ASSIGN_OR_RETURN(int dst_c, produced.ColumnIndex("dst"));
      VX_ASSIGN_OR_RETURN(inbound, ShardScatter(produced, dst_c, sharding));
    }
    // Sorted-message invariant (order-aware joins): keep each stored
    // message shard sorted by receiver so the next superstep's vertex ⟕
    // message join merges instead of hashing. The sort is stable, so each
    // receiver's messages keep their arrival order. Only the join-input
    // path benefits, so only it pays; not gated on the merge knob (see the
    // bit-identity note at the top of Run).
    if (!options_.use_union_input) {
      for (Table& t : inbound) {
        VX_ASSIGN_OR_RETURN(int dst_c, t.ColumnIndex("dst"));
        if (t.num_rows() > 0 && !OrderedByColumn(t, "dst")) {
          t = SortTable(t, {{dst_c, true}});
        } else if (t.sort_order().empty()) {
          t.SetSortOrder({{dst_c, true}});  // 0 rows: vacuously so
        }
      }
    }
    const double split_seconds =
        shard_split_seconds + phase_timer.ElapsedSeconds();
    phase_timer.Restart();

    // ---- Update vs. replace (§2.3), per shard. -------------------------
    // One global decision from the global update fraction, applied
    // shard-locally — worker updates only ever target vertices of their
    // own shard. The vertex and message tables are rewritten every
    // superstep, so they stay plain between supersteps: encoding them
    // would cost an encode (and the next superstep's full decode) per
    // superstep for tables read about once. Only the edge table — read
    // every superstep, never rewritten — keeps its load-time encoding
    // (storage/encoding.h). Value-neutral either way.
    bool used_replace = false;
    if (total_updates > 0) {
      const double frac =
          static_cast<double>(total_updates) /
          static_cast<double>(std::max<int64_t>(1, total_vertices));
      used_replace = frac >= options_.update_threshold;
      VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
          0, num_shards_z, /*grain=*/1,
          [&](size_t begin, size_t end) -> Status {
            ScopedExecKnobs scoped_knobs(knobs);
            for (size_t s = begin; s < end; ++s) {
              if (step[s].updates.num_rows() == 0) continue;
              // The replace-path rebuild joins report into the shard's
              // collector, like the input-build joins above.
              ScopedJoinStatsCollector collector(&step[s].join_stats);
              if (!used_replace) {
                // Copy-on-write: the first in-place apply of a run copies
                // the shard while the catalog still shares it (one-shard
                // runs start from the catalog snapshot; a checkpoint
                // publishes it again), so the catalog keeps the run's
                // input or last checkpoint whatever fails later. Every
                // other superstep writes the resident shard directly.
                VX_RETURN_NOT_OK(UpdateVerticesInPlace(
                    vertex.MutableShard(static_cast<int>(s)),
                    step[s].updates));
              } else {
                const auto& vs = vertex.shard(static_cast<int>(s));
                VX_ASSIGN_OR_RETURN(
                    Table new_vertex, RebuildVertices(*vs, step[s].updates));
                // The anti-join ∪ union rebuild breaks the sorted-by-id
                // invariant (updated rows land at the tail); restore it on
                // both input paths — the join path's merge joins and the
                // frontier's receiver binary search both key on it. Stable
                // and id-keyed, so results are unchanged: every id owns
                // exactly one vertex row and the worker input is
                // stable-sorted by id per partition. Not gated on the
                // merge or frontier knobs (see the note at the top of Run).
                if (!OrderedByColumn(new_vertex, "id")) {
                  VX_ASSIGN_OR_RETURN(int id_c,
                                      new_vertex.ColumnIndex("id"));
                  new_vertex = SortTable(new_vertex, {{id_c, true}});
                }
                vertex.ReplaceShard(static_cast<int>(s),
                                    std::move(new_vertex));
              }
            }
            return Status::OK();
          },
          knobs.threads));
      // Post-apply audit: every shard about to be read by the next
      // superstep must honor the structural claims it carries (sorted-by-id
      // declaration, encodings, zone maps) and hold only rows it owns —
      // the obligation ReplaceShard callers take on.
      VX_DCHECK_OK(vertex.CheckInvariants());
    }

    std::vector<int64_t> shard_message_rows;
    for (int s = 0; s < num_shards; ++s) {
      Table& t = inbound[static_cast<size_t>(s)];
      if (num_shards > 1) shard_message_rows.push_back(t.num_rows());
      message.ReplaceShard(s, std::move(t));
    }
    // Post-exchange audit: each inbound message shard must honor its
    // structural claims (the declared dst order feeds next superstep's
    // merge joins) and hold only messages routed to it.
    VX_DCHECK_OK(message.CheckInvariants());

    int64_t encoded_bytes = 0;
    int64_t decoded_bytes = 0;
    for (int s = 0; s < num_shards; ++s) {
      AccountTableBytes(*vertex.shard(s), &encoded_bytes, &decoded_bytes);
      AccountTableBytes(*message.shard(s), &encoded_bytes, &decoded_bytes);
    }
    prev_aggregates_ = std::move(new_aggregates);

    if (stats != nullptr) {
      SuperstepStats s;
      s.superstep = superstep;
      s.input_rows = input_rows;
      s.active_vertices = active;
      s.vertex_updates = total_updates;
      s.worker_messages = worker_messages;
      s.messages_sent = messages_sent;
      s.seconds = step_timer.ElapsedSeconds();
      s.used_replace = used_replace;
      s.input_seconds = input_seconds;
      s.worker_seconds = worker_seconds;
      s.split_seconds = split_seconds;
      s.apply_seconds = phase_timer.ElapsedSeconds();
      s.encoded_bytes = encoded_bytes;
      s.decoded_bytes = decoded_bytes;
      s.shards = num_shards;
      s.cross_shard_messages = cross_shard;
      s.shard_messages = std::move(shard_message_rows);
      JoinPathStats join_stats;
      for (const ShardStep& st : step) {
        if (num_shards > 1) s.shard_input_rows.push_back(st.input_rows);
        s.built_rows += st.built_rows;
        stats->resident_edge_rows += st.resident_edge_rows;
        s.used_frontier = s.used_frontier || st.used_frontier;
        s.frontier_vertices += st.frontier_vertices;
        join_stats.merge_joins += st.join_stats.merge_joins;
        join_stats.hash_joins += st.join_stats.hash_joins;
        join_stats.merge_rows += st.join_stats.merge_rows;
        join_stats.hash_rows += st.join_stats.hash_rows;
        join_stats.merge_seconds += st.join_stats.merge_seconds;
        join_stats.hash_seconds += st.join_stats.hash_seconds;
      }
      s.merge_joins = join_stats.merge_joins;
      s.hash_joins = join_stats.hash_joins;
      s.join_rows = join_stats.merge_rows + join_stats.hash_rows;
      s.join_seconds = join_stats.merge_seconds + join_stats.hash_seconds;
      stats->supersteps.push_back(s);
      stats->total_messages += messages_sent;
      ++(s.used_frontier ? stats->frontier_supersteps
                         : stats->dense_supersteps);
    }

    if (options_.checkpoint_every > 0 &&
        (superstep + 1) % options_.checkpoint_every == 0) {
      VX_RETURN_NOT_OK(publish());
      Table marker(Schema({{"next_superstep", DataType::kInt64}}));
      VX_RETURN_NOT_OK(
          marker.AppendRow({Value(static_cast<int64_t>(superstep + 1))}));
      VX_RETURN_NOT_OK(catalog_->ReplaceTable(marker_name, std::move(marker)));
      VX_RETURN_NOT_OK(SaveCatalog(*catalog_, options_.checkpoint_dir));
    }

    if (active == 0 && messages_sent == 0) break;
  }
  // Publish the final state so catalog readers (ReadVertexValues,
  // follow-up SQL) see the finished run.
  VX_RETURN_NOT_OK(publish());
  if (stats != nullptr) stats->total_seconds = total_timer.ElapsedSeconds();
  return Status::OK();
}

Status RunVertexProgram(Catalog* catalog, const Graph& graph,
                        VertexProgram* program, VertexicaOptions options,
                        GraphTableNames names, RunStats* stats) {
  VX_RETURN_NOT_OK(LoadGraphTables(catalog, graph, *program, names));
  Coordinator coordinator(catalog, program, options, names);
  return coordinator.Run(stats);
}

std::string RunStats::ToJson() const {
  std::ostringstream os;
  os << "{\"total_seconds\":" << total_seconds
     << ",\"total_messages\":" << total_messages
     << ",\"num_supersteps\":" << num_supersteps()
     << ",\"frontier_supersteps\":" << frontier_supersteps
     << ",\"dense_supersteps\":" << dense_supersteps
     << ",\"resident_edge_rows\":" << resident_edge_rows
     << ",\"supersteps\":[";
  for (size_t i = 0; i < supersteps.size(); ++i) {
    const SuperstepStats& s = supersteps[i];
    if (i > 0) os << ",";
    os << "{\"superstep\":" << s.superstep
       << ",\"input_rows\":" << s.input_rows
       << ",\"built_rows\":" << s.built_rows
       << ",\"active_vertices\":" << s.active_vertices
       << ",\"vertex_updates\":" << s.vertex_updates
       << ",\"worker_messages\":" << s.worker_messages
       << ",\"messages_sent\":" << s.messages_sent
       << ",\"seconds\":" << s.seconds
       << ",\"used_replace\":" << (s.used_replace ? "true" : "false")
       << ",\"input_seconds\":" << s.input_seconds
       << ",\"worker_seconds\":" << s.worker_seconds
       << ",\"split_seconds\":" << s.split_seconds
       << ",\"apply_seconds\":" << s.apply_seconds
       << ",\"encoded_bytes\":" << s.encoded_bytes
       << ",\"decoded_bytes\":" << s.decoded_bytes
       << ",\"shards\":" << s.shards
       << ",\"cross_shard_messages\":" << s.cross_shard_messages
       << ",\"shard_input_rows\":[";
    for (size_t j = 0; j < s.shard_input_rows.size(); ++j) {
      if (j > 0) os << ",";
      os << s.shard_input_rows[j];
    }
    os << "],\"shard_messages\":[";
    for (size_t j = 0; j < s.shard_messages.size(); ++j) {
      if (j > 0) os << ",";
      os << s.shard_messages[j];
    }
    os << "]"
       << ",\"used_frontier\":" << (s.used_frontier ? "true" : "false")
       << ",\"frontier_vertices\":" << s.frontier_vertices
       << ",\"merge_joins\":" << s.merge_joins
       << ",\"hash_joins\":" << s.hash_joins
       << ",\"join_rows\":" << s.join_rows
       << ",\"join_seconds\":" << s.join_seconds << "}";
  }
  os << "]}";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const RunStats& stats) {
  return os << stats.ToJson();
}

}  // namespace vertexica
