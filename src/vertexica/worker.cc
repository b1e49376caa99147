#include "vertexica/worker.h"

#include <unordered_set>

#include "storage/encoding.h"

namespace vertexica {

namespace {

/// Folds message `msg` into the combined message `acc`, component-wise.
/// Min and max replace only on a strictly better value under the storage
/// total order (NaN after every number), the comparison the exchange's
/// MIN/MAX aggregate uses, so the first of equal values is kept on both
/// sides of the exchange.
void FoldMessage(MessageCombiner combiner, const double* msg, double* acc,
                 int arity) {
  for (int c = 0; c < arity; ++c) {
    switch (combiner) {
      case MessageCombiner::kSum:
        acc[c] += msg[c];
        break;
      case MessageCombiner::kMin:
        if (TotalOrderCompareDoubles(msg[c], acc[c]) < 0) acc[c] = msg[c];
        break;
      case MessageCombiner::kMax:
        if (TotalOrderCompareDoubles(msg[c], acc[c]) > 0) acc[c] = msg[c];
        break;
      case MessageCombiner::kNone:
        break;
    }
  }
}

}  // namespace

// ------------------------------------------------------------ UnionRowBuffer

void UnionRowBuffer::AppendRow(int64_t id_v, int64_t kind_v, int64_t other_v,
                               bool halted_v, const double* p, int p_len) {
  id.push_back(id_v);
  kind.push_back(kind_v);
  other.push_back(other_v);
  halted.push_back(halted_v ? 1 : 0);
  for (size_t c = 0; c < payload.size(); ++c) {
    payload[c].push_back(static_cast<int>(c) < p_len ? p[c] : 0.0);
  }
}

Table UnionRowBuffer::ToTable() {
  const int arity = static_cast<int>(payload.size());
  std::vector<Column> cols;
  cols.reserve(static_cast<size_t>(4 + arity));
  cols.push_back(Column::FromInts(std::move(id)));
  cols.push_back(Column::FromInts(std::move(kind)));
  cols.push_back(Column::FromInts(std::move(other)));
  cols.push_back(Column::FromBools(std::move(halted)));
  for (auto& p : payload) cols.push_back(Column::FromDoubles(std::move(p)));
  auto made = Table::Make(MakeUnionSchema(arity), std::move(cols));
  VX_CHECK(made.ok()) << made.status().ToString();
  id = {};
  kind = {};
  other = {};
  halted = {};
  payload.assign(static_cast<size_t>(arity), {});
  return std::move(made).MoveValueUnsafe();
}

// --------------------------------------------------------------- VertexRunner

VertexRunner::VertexRunner(const WorkerSharedState* shared) : shared_(shared) {
  ctx_.superstep_ = shared_->superstep;
  ctx_.num_vertices_ = shared_->num_vertices;
  ctx_.msg_arity_ = shared_->program->message_arity();
  ctx_.value_.resize(static_cast<size_t>(shared_->program->value_arity()));
  ctx_.prev_aggregates_ = shared_->prev_aggregates;
  ctx_.local_aggregates_ = &local_aggregates_;
  ctx_.aggregator_kinds_ = &shared_->aggregator_kinds;
  pad_.resize(static_cast<size_t>(shared_->payload_arity), 0.0);
  if (shared_->combiner != MessageCombiner::kNone) slot_of_.emplace();
}

void VertexRunner::BeginVertex(int64_t id, bool halted, const double* value) {
  ctx_.vertex_id_ = id;
  old_halted_ = halted;
  std::copy(value, value + ctx_.value_.size(), ctx_.value_.begin());
  ctx_.edge_dst_.clear();
  ctx_.edge_weight_.clear();
  ctx_.msg_data_.clear();
  ctx_.num_messages_ = 0;
  ctx_.out_msg_dst_.clear();
  ctx_.out_msg_data_.clear();
  ctx_.modified_ = false;
  ctx_.halted_ = false;
}

void VertexRunner::AddEdge(int64_t dst, double weight) {
  ctx_.edge_dst_.push_back(dst);
  ctx_.edge_weight_.push_back(weight);
}

void VertexRunner::AddMessage(const double* payload) {
  ctx_.msg_data_.insert(ctx_.msg_data_.end(), payload,
                        payload + ctx_.msg_arity_);
  ++ctx_.num_messages_;
}

bool VertexRunner::FinishVertex(UnionRowBuffer* out) {
  // §2.2: compute runs for every vertex with at least one incoming message;
  // Pregel additionally keeps non-halted vertices active, and superstep 0
  // computes everywhere.
  const bool active = shared_->superstep == 0 || !old_halted_ ||
                      ctx_.num_messages_ > 0;
  if (!active) return false;

  shared_->program->Compute(&ctx_);

  // Vertex-state row. `other`=1 marks a real state change (used both to
  // count updates for the update-vs-replace decision and to filter the rows
  // actually applied).
  const bool changed = ctx_.modified_ || (ctx_.halted_ != old_halted_);
  out->AppendRow(ctx_.vertex_id_, kVertexTuple, changed ? 1 : 0, ctx_.halted_,
                 ctx_.value_.data(), static_cast<int>(ctx_.value_.size()));

  // Message rows: id = receiver, other = sender — or folded into the
  // partition's per-receiver slots, emitted by FinishPartition.
  const int ma = ctx_.msg_arity_;
  for (size_t m = 0; m < ctx_.out_msg_dst_.size(); ++m) {
    const double* msg =
        ctx_.out_msg_data_.data() + m * static_cast<size_t>(ma);
    if (slot_of_) {
      CombineMessage(ctx_.out_msg_dst_[m], msg);
    } else {
      out->AppendRow(ctx_.out_msg_dst_[m], kMessageTuple, ctx_.vertex_id_,
                     false, msg, ma);
    }
  }
  return true;
}

void VertexRunner::CombineMessage(int64_t dst, const double* msg) {
  const auto ma = static_cast<size_t>(ctx_.msg_arity_);
  const auto fresh = static_cast<int64_t>(slot_dst_.size());
  const int64_t slot = slot_of_->GetOrInsert(dst, fresh);
  if (slot == fresh) {
    slot_dst_.push_back(dst);
    slot_msg_.insert(slot_msg_.end(), msg, msg + ma);
  } else {
    FoldMessage(shared_->combiner, msg,
                slot_msg_.data() + static_cast<size_t>(slot) * ma,
                ctx_.msg_arity_);
  }
}

void VertexRunner::FinishPartition(UnionRowBuffer* out) {
  const int ma = ctx_.msg_arity_;
  for (size_t s = 0; s < slot_dst_.size(); ++s) {
    out->AppendRow(slot_dst_[s], kMessageTuple, -1, false,
                   slot_msg_.data() + s * static_cast<size_t>(ma), ma);
  }
  slot_dst_.clear();
  slot_msg_.clear();
  if (slot_of_) slot_of_->Clear();
  for (const auto& [name, value] : local_aggregates_) {
    int64_t index = -1;
    for (size_t i = 0; i < shared_->aggregator_names.size(); ++i) {
      if (shared_->aggregator_names[i] == name) {
        index = static_cast<int64_t>(i);
        break;
      }
    }
    if (index < 0) continue;
    const double p0 = value;
    out->AppendRow(-1, kAggregateTuple, index, false, &p0, 1);
  }
  local_aggregates_.clear();
}

// --------------------------------------------------------------------- Worker

Worker::Worker(std::shared_ptr<const WorkerSharedState> shared)
    : shared_(std::move(shared)),
      out_schema_(MakeUnionSchema(shared_->payload_arity)) {}

Status Worker::ProcessPartition(const Table& partition,
                                const std::function<Status(Table)>& emit) {
  const auto& ids = partition.column(0).ints();
  const auto& kinds = partition.column(1).ints();
  const auto& others = partition.column(2).ints();
  const auto& halted = partition.column(3).bools();
  const int arity = shared_->payload_arity;
  std::vector<const std::vector<double>*> pcols(static_cast<size_t>(arity));
  for (int c = 0; c < arity; ++c) {
    pcols[static_cast<size_t>(c)] = &partition.column(4 + c).doubles();
  }

  const int va = shared_->program->value_arity();
  const int ma = shared_->program->message_arity();
  std::vector<double> value(static_cast<size_t>(va));
  std::vector<double> msg(static_cast<size_t>(ma));

  UnionRowBuffer out(arity);
  VertexRunner runner(shared_.get());

  const int64_t n = partition.num_rows();
  int64_t i = 0;
  while (i < n) {
    const int64_t vid = ids[static_cast<size_t>(i)];
    int64_t end = i;
    int64_t vrow = -1;
    while (end < n && ids[static_cast<size_t>(end)] == vid) {
      if (kinds[static_cast<size_t>(end)] == kVertexTuple) vrow = end;
      ++end;
    }
    if (vrow < 0) {
      // Messages/edges for a vertex id absent from the vertex table.
      i = end;
      continue;
    }
    for (int c = 0; c < va; ++c) {
      value[static_cast<size_t>(c)] =
          (*pcols[static_cast<size_t>(c)])[static_cast<size_t>(vrow)];
    }
    runner.BeginVertex(vid, halted[static_cast<size_t>(vrow)] != 0,
                       value.data());
    for (int64_t r = i; r < end; ++r) {
      const auto sr = static_cast<size_t>(r);
      if (kinds[sr] == kEdgeTuple) {
        runner.AddEdge(others[sr], (*pcols[0])[sr]);
      } else if (kinds[sr] == kMessageTuple) {
        for (int c = 0; c < ma; ++c) {
          msg[static_cast<size_t>(c)] = (*pcols[static_cast<size_t>(c)])[sr];
        }
        runner.AddMessage(msg.data());
      }
    }
    runner.FinishVertex(&out);
    i = end;
  }
  runner.FinishPartition(&out);
  return emit(out.ToTable());
}

// ----------------------------------------------------------------- JoinWorker

JoinWorker::JoinWorker(std::shared_ptr<const WorkerSharedState> shared)
    : shared_(std::move(shared)),
      out_schema_(MakeUnionSchema(shared_->payload_arity)) {}

Status JoinWorker::ProcessPartition(const Table& partition,
                                    const std::function<Status(Table)>& emit) {
  const Schema& s = partition.schema();
  const int va = shared_->program->value_arity();
  const int ma = shared_->program->message_arity();

  auto Idx = [&s](const std::string& name) { return s.FieldIndex(name); };
  const int id_c = Idx("id");
  const int halted_c = Idx("halted");
  const int msg_seq_c = Idx("msg_seq");
  const int edge_seq_c = Idx("edge_seq");
  const int edst_c = Idx("edst");
  const int eweight_c = Idx("eweight");
  if (id_c < 0 || halted_c < 0 || msg_seq_c < 0 || edge_seq_c < 0 ||
      edst_c < 0 || eweight_c < 0) {
    return Status::Internal("JoinWorker: unexpected input schema " +
                            s.ToString());
  }
  std::vector<int> v_cols(static_cast<size_t>(va));
  for (int c = 0; c < va; ++c) {
    v_cols[static_cast<size_t>(c)] = Idx("v" + std::to_string(c));
  }
  std::vector<int> m_cols(static_cast<size_t>(ma));
  for (int c = 0; c < ma; ++c) {
    m_cols[static_cast<size_t>(c)] = Idx("mm" + std::to_string(c));
  }

  const auto& ids = partition.column(id_c).ints();
  const Column& msg_seq = partition.column(msg_seq_c);
  const Column& edge_seq = partition.column(edge_seq_c);

  std::vector<double> value(static_cast<size_t>(va));
  std::vector<double> msg(static_cast<size_t>(ma));

  UnionRowBuffer out(shared_->payload_arity);
  VertexRunner runner(shared_.get());
  // order-insensitive: membership tests only (dedup within one vertex's
  // tuple group); rows stream through in partition order.
  std::unordered_set<int64_t> seen_msgs;
  std::unordered_set<int64_t> seen_edges;

  const int64_t n = partition.num_rows();
  int64_t i = 0;
  while (i < n) {
    const int64_t vid = ids[static_cast<size_t>(i)];
    int64_t end = i;
    while (end < n && ids[static_cast<size_t>(end)] == vid) ++end;

    for (int c = 0; c < va; ++c) {
      value[static_cast<size_t>(c)] =
          partition.column(v_cols[static_cast<size_t>(c)]).GetDouble(i);
    }
    runner.BeginVertex(vid, partition.column(halted_c).GetBool(i),
                       value.data());
    seen_msgs.clear();
    seen_edges.clear();
    for (int64_t r = i; r < end; ++r) {
      if (!msg_seq.IsNull(r)) {
        const int64_t seq = msg_seq.GetInt64(r);
        if (seen_msgs.insert(seq).second) {
          for (int c = 0; c < ma; ++c) {
            msg[static_cast<size_t>(c)] =
                partition.column(m_cols[static_cast<size_t>(c)]).GetDouble(r);
          }
          runner.AddMessage(msg.data());
        }
      }
      if (!edge_seq.IsNull(r)) {
        const int64_t seq = edge_seq.GetInt64(r);
        if (seen_edges.insert(seq).second) {
          runner.AddEdge(partition.column(edst_c).GetInt64(r),
                         partition.column(eweight_c).GetDouble(r));
        }
      }
    }
    runner.FinishVertex(&out);
    i = end;
  }
  runner.FinishPartition(&out);
  return emit(out.ToTable());
}

}  // namespace vertexica
