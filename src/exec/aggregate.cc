#include "exec/aggregate.h"

#include <unordered_map>

#include "common/hash.h"
#include "common/threadpool.h"
#include "exec/parallel.h"
#include "storage/encoding.h"

namespace vertexica {

namespace {

/// Per-(group, aggregate) running state.
struct AccState {
  double dsum = 0.0;
  int64_t isum = 0;
  int64_t count = 0;
  bool seen = false;
  Value extreme;  // current min or max
};

/// MIN/MAX comparison of two non-null values of one column, in the storage
/// total order (Column::CompareRows): doubles compare with NaN after every
/// number and equal to itself, so MIN skips NaN unless every value is NaN,
/// MAX is NaN if any value is, and both are exact under any chunking.
int CompareValues(const Value& a, const Value& b) {
  if (a.is_string()) {
    return a.string_value().compare(b.string_value());
  }
  if (a.is_bool()) {
    const int x = a.bool_value() ? 1 : 0;
    const int y = b.bool_value() ? 1 : 0;
    return x - y;
  }
  if (a.is_int64() && b.is_int64()) {
    const int64_t x = a.int64_value();
    const int64_t y = b.int64_value();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  return TotalOrderCompareDoubles(a.AsDouble(), b.AsDouble());
}

uint64_t HashGroupRow(const Table& t, const std::vector<int>& cols,
                      int64_t row) {
  // Dictionary-encoded STRING group columns hash via the segment's cached
  // per-entry hashes (Column::HashRow) — no decode, one HashString per
  // distinct value — and GroupRowsEqual's CompareRows resolves equal codes
  // without touching string bytes.
  uint64_t h = 0xabcdef01ULL;
  for (int c : cols) h = HashCombine(h, t.column(c).HashRow(row));
  return h;
}

bool GroupRowsEqual(const Table& t, const std::vector<int>& cols, int64_t a,
                    int64_t b) {
  for (int c : cols) {
    const Column& col = t.column(c);
    if (col.IsNull(a) != col.IsNull(b)) return false;
    if (!col.IsNull(a) && col.CompareRows(a, col, b) != 0) return false;
  }
  return true;
}

/// Folds row `i` of `in` into `st` (the shared accumulation step of the
/// serial fold and the parallel per-chunk partials). `agg_col` is -1 for
/// COUNT(*).
void AccumulateRow(const AggSpec& spec, const Table& in, int agg_col,
                   int64_t i, AccState& st) {
  if (spec.op == AggOp::kCountStar) {
    ++st.count;
    return;
  }
  const Column& col = in.column(agg_col);
  if (col.IsNull(i)) return;
  switch (spec.op) {
    case AggOp::kCount:
      ++st.count;
      break;
    case AggOp::kSum:
    case AggOp::kAvg:
      ++st.count;
      if (col.type() == DataType::kInt64) {
        st.isum += col.GetInt64(i);
        st.dsum += static_cast<double>(col.GetInt64(i));
      } else {
        st.dsum += col.GetDouble(i);
      }
      break;
    case AggOp::kMin:
    case AggOp::kMax: {
      Value v = col.GetValue(i);
      if (!st.seen) {
        st.extreme = std::move(v);
        st.seen = true;
      } else {
        const int cmp = CompareValues(v, st.extreme);
        if ((spec.op == AggOp::kMin && cmp < 0) ||
            (spec.op == AggOp::kMax && cmp > 0)) {
          st.extreme = std::move(v);
        }
      }
      break;
    }
    case AggOp::kCountStar:
      break;
  }
}

/// Merges a later-chunk partial `src` into `dst` (chunk-order fold).
void MergeAcc(const AggSpec& spec, const AccState& src, AccState& dst) {
  dst.count += src.count;
  dst.isum += src.isum;
  dst.dsum += src.dsum;
  if (src.seen) {
    if (!dst.seen) {
      dst.extreme = src.extreme;
      dst.seen = true;
    } else {
      const int cmp = CompareValues(src.extreme, dst.extreme);
      if ((spec.op == AggOp::kMin && cmp < 0) ||
          (spec.op == AggOp::kMax && cmp > 0)) {
        dst.extreme = src.extreme;
      }
    }
  }
}

/// Materializes the final table from representatives + accumulated states
/// (shared by the serial operator and the parallel kernel).
Result<Table> MaterializeAgg(const Table& in, const Schema& schema,
                             const std::vector<int>& group_cols,
                             const std::vector<AggSpec>& aggs,
                             const std::vector<int64_t>& representative,
                             const std::vector<AccState>& acc,
                             bool empty_global) {
  const size_t num_groups = representative.size();
  const size_t num_aggs = aggs.size();
  std::vector<Column> out_cols;
  for (size_t g = 0; g < group_cols.size(); ++g) {
    out_cols.push_back(in.column(group_cols[g]).Take(representative));
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    const DataType out_type =
        schema.field(static_cast<int>(group_cols.size() + a)).type;
    Column col(out_type);
    for (size_t g = 0; g < num_groups; ++g) {
      const AccState& st = acc[g * num_aggs + a];
      switch (aggs[a].op) {
        case AggOp::kCountStar:
        case AggOp::kCount:
          col.AppendInt64(st.count);
          break;
        case AggOp::kSum:
          if (st.count == 0 || empty_global) {
            col.AppendNull();
          } else if (out_type == DataType::kInt64) {
            col.AppendInt64(st.isum);
          } else {
            col.AppendDouble(st.dsum);
          }
          break;
        case AggOp::kAvg:
          if (st.count == 0 || empty_global) {
            col.AppendNull();
          } else {
            col.AppendDouble(st.dsum / static_cast<double>(st.count));
          }
          break;
        case AggOp::kMin:
        case AggOp::kMax:
          if (!st.seen) {
            col.AppendNull();
          } else {
            col.AppendValue(st.extreme);
          }
          break;
      }
    }
    out_cols.push_back(std::move(col));
  }
  return Table::Make(schema, std::move(out_cols));
}

/// Resolves group-by and aggregate input column indices (-1 = COUNT(*)).
Status ResolveAggColumns(const Table& in,
                         const std::vector<std::string>& group_by,
                         const std::vector<AggSpec>& aggs,
                         std::vector<int>* group_cols,
                         std::vector<int>* agg_cols) {
  for (const auto& g : group_by) {
    VX_ASSIGN_OR_RETURN(int idx, in.ColumnIndex(g));
    group_cols->push_back(idx);
  }
  for (const auto& a : aggs) {
    if (a.op == AggOp::kCountStar) {
      agg_cols->push_back(-1);
    } else {
      VX_ASSIGN_OR_RETURN(int idx, in.ColumnIndex(a.input));
      agg_cols->push_back(idx);
    }
  }
  return Status::OK();
}

/// One chunk's partial aggregation: groups in local first-appearance order
/// (representatives are global row ids) with their accumulated states.
struct AggPartial {
  std::vector<int64_t> representative;
  std::vector<AccState> acc;  // representative.size() * aggs.size()
};

/// Aggregates rows [begin, end) of `in` into a partial.
void AggregateChunk(const Table& in, const std::vector<int>& group_cols,
                    const std::vector<AggSpec>& aggs,
                    const std::vector<int>& agg_cols, bool int64_fast_path,
                    int64_t begin, int64_t end, AggPartial* out) {
  const size_t num_aggs = aggs.size();
  auto accumulate = [&](int64_t gid, int64_t row) {
    for (size_t a = 0; a < num_aggs; ++a) {
      AccumulateRow(aggs[a], in, agg_cols[a],
                    row, out->acc[static_cast<size_t>(gid) * num_aggs + a]);
    }
  };
  auto new_group = [&](int64_t row) -> int64_t {
    const auto gid = static_cast<int64_t>(out->representative.size());
    out->representative.push_back(row);
    out->acc.resize(out->acc.size() + num_aggs);
    return gid;
  };

  if (group_cols.empty()) {
    new_group(begin);
    for (int64_t i = begin; i < end; ++i) accumulate(0, i);
    return;
  }
  if (int64_fast_path) {
    const auto& keys = in.column(group_cols[0]).ints();
    Int64HashMap<int64_t> ids(static_cast<size_t>(end - begin));
    for (int64_t i = begin; i < end; ++i) {
      int64_t& gid = ids.GetOrInsert(keys[static_cast<size_t>(i)], -1);
      if (gid < 0) gid = new_group(i);
      accumulate(gid, i);
    }
    return;
  }
  // order-insensitive: keyed lookups only; group ids are assigned in
  // input-row order, never in map-iteration order.
  std::unordered_map<uint64_t, std::vector<int64_t>> chains;
  for (int64_t i = begin; i < end; ++i) {
    const uint64_t h = HashGroupRow(in, group_cols, i);
    auto& chain = chains[h];
    int64_t gid = -1;
    for (int64_t g : chain) {
      if (GroupRowsEqual(in, group_cols,
                         out->representative[static_cast<size_t>(g)], i)) {
        gid = g;
        break;
      }
    }
    if (gid < 0) {
      gid = new_group(i);
      chain.push_back(gid);
    }
    accumulate(gid, i);
  }
}

}  // namespace

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum:
      return "SUM";
    case AggOp::kCount:
      return "COUNT";
    case AggOp::kCountStar:
      return "COUNT(*)";
    case AggOp::kMin:
      return "MIN";
    case AggOp::kMax:
      return "MAX";
    case AggOp::kAvg:
      return "AVG";
  }
  return "?";
}

Result<Schema> AggregateOutputSchema(const Schema& input,
                                     const std::vector<std::string>& group_by,
                                     const std::vector<AggSpec>& aggs) {
  Schema schema;
  for (const auto& g : group_by) {
    const int idx = input.FieldIndex(g);
    if (idx < 0) {
      return Status::InvalidArgument("Aggregate: no group-by column '" + g +
                                     "'");
    }
    schema.AddField(input.field(idx));
  }
  for (const auto& a : aggs) {
    DataType in_type = DataType::kInt64;
    if (a.op != AggOp::kCountStar) {
      const int idx = input.FieldIndex(a.input);
      if (idx < 0) {
        return Status::InvalidArgument("Aggregate: no input column '" +
                                       a.input + "'");
      }
      in_type = input.field(idx).type;
      if ((a.op == AggOp::kSum || a.op == AggOp::kAvg) &&
          !IsNumeric(in_type)) {
        return Status::TypeError(std::string(AggOpName(a.op)) +
                                 " requires a numeric column");
      }
    }
    DataType out_type = DataType::kInt64;
    switch (a.op) {
      case AggOp::kSum:
        out_type = in_type;
        break;
      case AggOp::kCount:
      case AggOp::kCountStar:
        out_type = DataType::kInt64;
        break;
      case AggOp::kMin:
      case AggOp::kMax:
        out_type = in_type;
        break;
      case AggOp::kAvg:
        out_type = DataType::kDouble;
        break;
    }
    schema.AddField(Field{a.output, out_type});
  }
  return schema;
}

HashAggregateOp::HashAggregateOp(OperatorPtr input,
                                 std::vector<std::string> group_by,
                                 std::vector<AggSpec> aggs)
    : input_(std::move(input)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  auto schema =
      AggregateOutputSchema(input_->output_schema(), group_by_, aggs_);
  if (!schema.ok()) {
    init_status_ = schema.status();
    return;
  }
  schema_ = *std::move(schema);
}

Status HashAggregateOp::Compute() {
  VX_ASSIGN_OR_RETURN(Table in, Collect(input_.get()));

  std::vector<int> group_cols;
  std::vector<int> agg_cols;
  VX_RETURN_NOT_OK(
      ResolveAggColumns(in, group_by_, aggs_, &group_cols, &agg_cols));

  // Assign group ids. Fast path: single non-null INT64 key.
  std::vector<int64_t> group_of(static_cast<size_t>(in.num_rows()));
  std::vector<int64_t> representative;  // first row of each group
  if (group_cols.size() == 1 &&
      in.column(group_cols[0]).type() == DataType::kInt64 &&
      in.column(group_cols[0]).null_count() == 0) {
    const auto& keys = in.column(group_cols[0]).ints();
    Int64HashMap<int64_t> ids(keys.size());
    for (int64_t i = 0; i < in.num_rows(); ++i) {
      int64_t& gid = ids.GetOrInsert(keys[static_cast<size_t>(i)], -1);
      if (gid < 0) {
        gid = static_cast<int64_t>(representative.size());
        representative.push_back(i);
      }
      group_of[static_cast<size_t>(i)] = gid;
    }
  } else if (!group_cols.empty()) {
    // order-insensitive: keyed lookups only; group ids are assigned in
    // input-row order, never in map-iteration order.
    std::unordered_map<uint64_t, std::vector<int64_t>> chains;
    for (int64_t i = 0; i < in.num_rows(); ++i) {
      const uint64_t h = HashGroupRow(in, group_cols, i);
      auto& chain = chains[h];
      int64_t gid = -1;
      for (int64_t g : chain) {
        if (GroupRowsEqual(in, group_cols, representative[static_cast<size_t>(g)],
                           i)) {
          gid = g;
          break;
        }
      }
      if (gid < 0) {
        gid = static_cast<int64_t>(representative.size());
        representative.push_back(i);
        chain.push_back(gid);
      }
      group_of[static_cast<size_t>(i)] = gid;
    }
  } else {
    // Global aggregate: one group, possibly with zero rows.
    representative.push_back(0);
    for (auto& g : group_of) g = 0;
  }

  const size_t num_groups = representative.size();
  const size_t num_aggs = aggs_.size();
  std::vector<AccState> acc(num_groups * num_aggs);

  for (int64_t i = 0; i < in.num_rows(); ++i) {
    const auto gid = static_cast<size_t>(group_of[static_cast<size_t>(i)]);
    for (size_t a = 0; a < num_aggs; ++a) {
      AccumulateRow(aggs_[a], in, agg_cols[a], i, acc[gid * num_aggs + a]);
    }
  }

  const bool empty_global = group_by_.empty() && in.num_rows() == 0;
  VX_ASSIGN_OR_RETURN(Table out,
                      MaterializeAgg(in, schema_, group_cols, aggs_,
                                     representative, acc, empty_global));
  result_ = std::move(out);
  return Status::OK();
}

Result<std::optional<Table>> HashAggregateOp::Next() {
  VX_RETURN_NOT_OK(init_status_);
  if (done_) return std::optional<Table>{};
  VX_RETURN_NOT_OK(Compute());
  done_ = true;
  return std::move(result_);
}

Result<Table> ParallelHashAggregate(const Table& input,
                                    const std::vector<std::string>& group_by,
                                    const std::vector<AggSpec>& aggs,
                                    const ParallelOptions& options) {
  VX_ASSIGN_OR_RETURN(Schema schema,
                      AggregateOutputSchema(input.schema(), group_by, aggs));
  std::vector<int> group_cols;
  std::vector<int> agg_cols;
  VX_RETURN_NOT_OK(
      ResolveAggColumns(input, group_by, aggs, &group_cols, &agg_cols));

  const int64_t rows = input.num_rows();
  const int64_t grain = options.ResolvedGrain();
  const size_t num_aggs = aggs.size();
  const bool int64_fast_path =
      group_cols.size() == 1 &&
      input.column(group_cols[0]).type() == DataType::kInt64 &&
      input.column(group_cols[0]).null_count() == 0;

  // Phase 1: per-chunk partial states. Chunk boundaries depend only on
  // morsel_rows, so the chunk-order merge below is identical at any thread
  // count.
  const size_t num_chunks =
      rows == 0 ? 0 : static_cast<size_t>((rows + grain - 1) / grain);
  std::vector<AggPartial> partials(num_chunks);
  const int threads = options.ResolvedThreads();
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, static_cast<size_t>(rows), static_cast<size_t>(grain),
      [&](size_t begin, size_t end) {
        AggregateChunk(input, group_cols, aggs, agg_cols, int64_fast_path,
                       static_cast<int64_t>(begin), static_cast<int64_t>(end),
                       &partials[begin / static_cast<size_t>(grain)]);
        return Status::OK();
      },
      threads));

  // Phase 2: merge partials in chunk order. Groups keep global
  // first-appearance order because chunks are scanned in row order.
  std::vector<int64_t> representative;
  std::vector<AccState> acc;
  auto add_group = [&](int64_t rep) -> int64_t {
    const auto gid = static_cast<int64_t>(representative.size());
    representative.push_back(rep);
    acc.resize(acc.size() + num_aggs);
    return gid;
  };
  auto merge_states = [&](int64_t gid, const AggPartial& partial,
                          size_t local) {
    for (size_t a = 0; a < num_aggs; ++a) {
      MergeAcc(aggs[a], partial.acc[local * num_aggs + a],
               acc[static_cast<size_t>(gid) * num_aggs + a]);
    }
  };

  if (group_cols.empty()) {
    add_group(0);
    for (const auto& partial : partials) {
      if (!partial.representative.empty()) merge_states(0, partial, 0);
    }
  } else if (int64_fast_path) {
    const auto& keys = input.column(group_cols[0]).ints();
    Int64HashMap<int64_t> ids(256);
    for (const auto& partial : partials) {
      for (size_t g = 0; g < partial.representative.size(); ++g) {
        const int64_t rep = partial.representative[g];
        int64_t& gid = ids.GetOrInsert(keys[static_cast<size_t>(rep)], -1);
        if (gid < 0) gid = add_group(rep);
        merge_states(gid, partial, g);
      }
    }
  } else {
    // order-insensitive: keyed lookups only; merged group ids follow
    // partial/representative order, never map-iteration order.
    std::unordered_map<uint64_t, std::vector<int64_t>> chains;
    for (const auto& partial : partials) {
      for (size_t g = 0; g < partial.representative.size(); ++g) {
        const int64_t rep = partial.representative[g];
        const uint64_t h = HashGroupRow(input, group_cols, rep);
        auto& chain = chains[h];
        int64_t gid = -1;
        for (int64_t cand : chain) {
          if (GroupRowsEqual(input, group_cols,
                             representative[static_cast<size_t>(cand)], rep)) {
            gid = cand;
            break;
          }
        }
        if (gid < 0) {
          gid = add_group(rep);
          chain.push_back(gid);
        }
        merge_states(gid, partial, g);
      }
    }
  }

  const bool empty_global = group_by.empty() && rows == 0;
  return MaterializeAgg(input, schema, group_cols, aggs, representative, acc,
                        empty_global);
}

}  // namespace vertexica
