/// \file exec_knobs.h
/// \brief The execution knobs — threads, shards, encoding, merge_join,
/// frontier, vectorized — defined, parsed and installed by one table.
///
/// Each knob is one row of the knob table (KnobSpecOf): its name (the
/// RunRequest field), its VERTEXICA_* environment variable, its accepted
/// tokens or integer range, its default, and how it reads and writes its
/// ExecKnobs field. Everything else is generic over the rows:
///
/// - **Ambient resolution.** A thread's value of a knob is its innermost
///   scoped override, else the environment value (parsed once per
///   process), else the row's default. The typed getters (ExecThreads()
///   ... VectorizedEnabled()) are one thread-local read.
/// - **Parsing.** The environment and RunRequest accept the same
///   vocabulary — the row's tokens, or an integer in its range — and
///   ParseKnob maps both to values. Environment garbage warns once and
///   falls back (an out-of-range integer clamps); request garbage is
///   InvalidArgument.
/// - **Install/capture.** ExecKnobs::Capture, ScopedExecKnobs and
///   ExecKnobs::operator== loop over the rows, so a task handed to a pool
///   thread (whose thread-locals are all unset) reinstalls every knob the
///   submitting thread saw.
///
/// Adding a knob means one Knob entry, one table row (exec_knobs.cc) and
/// one ExecKnobs field.

#ifndef VERTEXICA_EXEC_EXEC_KNOBS_H_
#define VERTEXICA_EXEC_EXEC_KNOBS_H_

#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "exec/kernel_stats.h"
#include "storage/encoding.h"

namespace vertexica {

/// \brief Frontier-path policy, resolved per superstep by the coordinator
/// (docs/EXECUTOR.md, "Active-vertex frontier supersteps").
enum class FrontierMode {
  kAuto,  ///< frontier when the active fraction is below the threshold
  kOn,    ///< frontier on every superstep after superstep 0
  kOff,   ///< always dense
};

const char* FrontierModeName(FrontierMode m);

/// \brief The execution knobs, in table order.
enum class Knob {
  kThreads,
  kShards,
  kEncoding,
  kMergeJoin,
  kFrontier,
  kVectorized,
};
inline constexpr int kNumKnobs = 6;

/// \brief A value snapshot of the execution knobs (plus the run's
/// cancellation token and kernel-counter block).
///
/// Plain copyable data: capture once on the coordinating thread, then copy
/// into each pool task and install there. Also the payload of the serving
/// layer's ExecContext (api/exec_context.h), which resolves a RunRequest's
/// explicit overrides against ambient defaults into one of these.
struct ExecKnobs {
  int threads = 1;
  int shards = 1;
  EncodingMode encoding = EncodingMode::kAuto;
  bool merge_join = true;
  FrontierMode frontier = FrontierMode::kAuto;
  bool vectorized = true;
  /// The run's cancellation/deadline token (common/cancel.h). Not a tuning
  /// knob, but it rides the same capture/install plumbing so pool tasks
  /// observe the submitting request's cancellation — a null token (the
  /// default) never fires.
  CancelToken cancel;
  /// The run's kernel-counter block (exec/kernel_stats.h); nullptr disables
  /// counting. Rides the knob plumbing so morsel workers report into the
  /// submitting run's block — safe to share across pool threads because the
  /// block is all relaxed atomics (unlike JoinPathStats, which is installed
  /// per dispatching thread only; see api/backends.cc).
  KernelStats* kernel_stats = nullptr;

  /// Snapshots the calling thread's ambient knobs, token and block.
  static ExecKnobs Capture();

  bool operator==(const ExecKnobs& other) const;
  bool operator!=(const ExecKnobs& other) const { return !(*this == other); }
};

/// \brief One accepted spelling of a token knob and the value it means.
struct KnobToken {
  template <typename T>
  KnobToken(const char* token_text, T token_value)
      : text(token_text), value(static_cast<int>(token_value)) {}

  const char* text;  ///< lower-case; matched case-insensitively
  int value;         ///< the knob's value as an int (enum or bool cast)
};

/// \brief One row of the knob table. Values are carried as ints: enums and
/// bools are cast at the ExecKnobs field and at the typed getters.
struct KnobSpec {
  const char* name;     ///< RunRequest/ExecKnobs field name
  const char* env_var;  ///< VERTEXICA_* environment variable
  /// Accepted tokens; empty for an integer knob.
  std::vector<KnobToken> tokens;
  /// Accepted range of an integer knob. 0 means "ambient" in a request
  /// field, and a scoped override <= 0 is a no-op.
  int min_value = 0;
  int max_value = 0;
  int default_value = 0;  ///< when the environment variable is unset
  int (*get)(const ExecKnobs& knobs) = nullptr;
  void (*set)(ExecKnobs* knobs, int value) = nullptr;

  bool is_integer() const { return tokens.empty(); }
};

/// \brief The table row of `knob`.
const KnobSpec& KnobSpecOf(Knob knob);

/// \brief Every knob, in table order (for loops over the table).
inline constexpr Knob kAllKnobs[kNumKnobs] = {
    Knob::kThreads,   Knob::kShards,   Knob::kEncoding,
    Knob::kMergeJoin, Knob::kFrontier, Knob::kVectorized};

/// \brief Parses `text` as a value of `knob`: one of its tokens
/// (case-insensitive), or a strict decimal integer inside its range.
/// Anything else is InvalidArgument naming the knob and what it accepts.
Result<int> ParseKnob(Knob knob, const std::string& text);

/// \brief Reads `knob`'s environment variable now: unset or empty gives
/// the default; a value ParseKnob rejects logs one warning per variable
/// per process and gives the default (an out-of-range integer clamps into
/// range instead). The ambient getters use a once-per-process cache of
/// this, so later environment changes do not reach them.
int ReadEnvKnob(Knob knob);

/// \name Ambient getters
/// The calling thread's value: innermost scoped override, else the cached
/// environment value, else the default. No lock, no getenv, no string
/// compare.
/// @{
int AmbientKnob(Knob knob);
int ExecThreads();  ///< always >= 1
int ExecShards();   ///< always >= 1
EncodingMode AmbientEncodingMode();
bool MergeJoinEnabled();
FrontierMode AmbientFrontierMode();
bool VectorizedEnabled();
/// @}

/// \brief RAII override of one knob on the current thread, restored on
/// exit. An integer knob given a value <= 0 is a no-op scope.
class ScopedKnob {
 public:
  ScopedKnob(Knob knob, int value);
  ~ScopedKnob();
  ScopedKnob(const ScopedKnob&) = delete;
  ScopedKnob& operator=(const ScopedKnob&) = delete;

 private:
  Knob knob_;
  int prev_;
};

/// \brief ScopedKnob taking the knob's typed value.
template <Knob K, typename T>
class ScopedKnobOf : public ScopedKnob {
 public:
  explicit ScopedKnobOf(T value) : ScopedKnob(K, static_cast<int>(value)) {}
};

using ScopedExecThreads = ScopedKnobOf<Knob::kThreads, int>;
using ScopedExecShards = ScopedKnobOf<Knob::kShards, int>;
using ScopedEncodingMode = ScopedKnobOf<Knob::kEncoding, EncodingMode>;
using ScopedMergeJoin = ScopedKnobOf<Knob::kMergeJoin, bool>;
using ScopedFrontierMode = ScopedKnobOf<Knob::kFrontier, FrontierMode>;
using ScopedVectorized = ScopedKnobOf<Knob::kVectorized, bool>;

/// \brief RAII installer: pins every captured knob (and the cancel token
/// and counter block) on the current thread for the lifetime of the scope.
/// Use inside pool tasks with a captured ExecKnobs.
///
/// After construction the thread re-Capture()s to exactly the installed
/// value — audited under VX_DCHECK, so an ExecKnobs that cannot be
/// installed (a count <= 0, which installs as a no-op) is caught the first
/// time any pool task runs in a debug-audit build.
class ScopedExecKnobs {
 public:
  explicit ScopedExecKnobs(const ExecKnobs& knobs);
  ~ScopedExecKnobs();
  ScopedExecKnobs(const ScopedExecKnobs&) = delete;
  ScopedExecKnobs& operator=(const ScopedExecKnobs&) = delete;

 private:
  int prev_[kNumKnobs];
  ScopedCancelToken cancel_;
  ScopedKernelStats kernel_stats_;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_EXEC_KNOBS_H_
