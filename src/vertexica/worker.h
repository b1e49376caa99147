/// \file worker.h
/// \brief The worker UDF (§2.2): container for the vertex-compute function.
///
/// A worker receives one hash partition of the common-schema input (sorted
/// on vertex id — "vertex batching", §2.3), identifies the vertex, edge and
/// message tuples of each vertex, and runs the user's Compute serially over
/// the vertices of its batch. Its output reuses the common schema:
/// kind=0 rows are vertex-state updates (`other`=1 when the state changed),
/// kind=2 rows are outgoing messages (`id`=receiver, `other`=sender), and
/// kind=3 rows carry partial global-aggregator values. When the run combines
/// messages (WorkerSharedState::combiner), a worker folds its partition's
/// outgoing messages per receiver instead (Pregel's sender-side combiner)
/// and emits one kind-2 row per receiver at the end of the partition, with
/// `other`=-1: a combined row has no single sender.

#ifndef VERTEXICA_VERTEXICA_WORKER_H_
#define VERTEXICA_VERTEXICA_WORKER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "udf/transform.h"
#include "vertexica/graph_tables.h"
#include "vertexica/vertex_program.h"

namespace vertexica {

/// \brief Immutable per-superstep state shared by all worker instances.
struct WorkerSharedState {
  VertexProgram* program = nullptr;
  int superstep = 0;
  int64_t num_vertices = 0;
  int payload_arity = 1;
  /// The combiner the workers apply to their outgoing messages: the
  /// program's, or kNone when VertexicaOptions::use_combiner is off.
  MessageCombiner combiner = MessageCombiner::kNone;
  /// Aggregator values produced in the previous superstep.
  const std::map<std::string, double>* prev_aggregates = nullptr;
  /// Kind of each declared aggregator (for identity/merge).
  std::map<std::string, AggregatorKind> aggregator_kinds;
  /// Ordered aggregator names; kind-3 output rows use `other` as the index
  /// into this list.
  std::vector<std::string> aggregator_names;
};

/// \brief Columnar accumulation buffer for common-schema output rows.
/// Cheaper than Table::AppendRow in the message-heavy hot path.
struct UnionRowBuffer {
  explicit UnionRowBuffer(int payload_arity)
      : payload(static_cast<size_t>(payload_arity)) {}

  std::vector<int64_t> id;
  std::vector<int64_t> kind;
  std::vector<int64_t> other;
  std::vector<uint8_t> halted;
  std::vector<std::vector<double>> payload;  // one vector per payload column

  void AppendRow(int64_t id_v, int64_t kind_v, int64_t other_v, bool halted_v,
                 const double* p, int p_len);

  /// \brief Converts to a common-schema table; leaves the buffer empty.
  Table ToTable();
};

/// \brief Shared implementation of the per-vertex Compute invocation.
///
/// The two workers (union input / join input) parse their partition format
/// and feed this runner; the runner owns the VertexContext, activity rules
/// and output buffering. Exposed publicly for white-box tests.
class VertexRunner {
 public:
  explicit VertexRunner(const WorkerSharedState* shared);

  /// Begins a vertex. `value` must hold value_arity doubles.
  void BeginVertex(int64_t id, bool halted, const double* value);
  void AddEdge(int64_t dst, double weight);
  void AddMessage(const double* payload);

  /// Runs Compute if the vertex is active (superstep 0, not halted, or has
  /// messages) and appends output rows to `out`: the vertex-state row, then
  /// one kind-2 row per message — or, when combining, folds the messages
  /// into the partition's per-receiver slots instead. Returns true if
  /// computed.
  bool FinishVertex(UnionRowBuffer* out);

  /// Appends the partition's combined kind-2 rows (one per receiver, in
  /// first-appearance order) and then its kind-3 partial-aggregate rows,
  /// and resets both. Call once per partition, after its last vertex.
  void FinishPartition(UnionRowBuffer* out);

 private:
  /// Folds one outgoing message into its receiver's slot; the receiver's
  /// first message seeds the slot.
  void CombineMessage(int64_t dst, const double* msg);

  const WorkerSharedState* shared_;
  VertexContext ctx_;
  std::map<std::string, double> local_aggregates_;
  std::vector<double> pad_;  // scratch payload row, payload_arity wide
  bool old_halted_ = false;

  /// \name Sender-side combining (empty unless shared_->combiner != kNone)
  /// @{
  std::optional<Int64HashMap<int64_t>> slot_of_;  // receiver -> slot
  std::vector<int64_t> slot_dst_;  // slot -> receiver, first-appearance order
  std::vector<double> slot_msg_;   // message_arity doubles per slot
  /// @}
};

/// \brief Worker over the §2.3 *union* input (vertex+edge+message tuples in
/// the common schema).
class Worker : public TransformUdf {
 public:
  explicit Worker(std::shared_ptr<const WorkerSharedState> shared);

  const Schema& output_schema() const override { return out_schema_; }
  Status ProcessPartition(const Table& partition,
                          const std::function<Status(Table)>& emit) override;

 private:
  std::shared_ptr<const WorkerSharedState> shared_;
  Schema out_schema_;
};

/// \brief Worker over the traditional *3-way join* input (the §2.3
/// strawman): wide rows vertex ⟕ message ⟕ edge, with `msg_seq`/`edge_seq`
/// columns to undo the join fan-out.
///
/// Expected input columns: id, halted, v0.., msender, mm0.., msg_seq,
/// edst, eweight, edge_seq (seq columns nullable).
class JoinWorker : public TransformUdf {
 public:
  explicit JoinWorker(std::shared_ptr<const WorkerSharedState> shared);

  const Schema& output_schema() const override { return out_schema_; }
  Status ProcessPartition(const Table& partition,
                          const std::function<Status(Table)>& emit) override;

 private:
  std::shared_ptr<const WorkerSharedState> shared_;
  Schema out_schema_;
};

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_WORKER_H_
