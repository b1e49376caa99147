/// \file harness.h
/// \brief The benchmark harness shared by the four workloads: run
/// configuration, sample statistics, an in-memory span tracer, and the
/// per-run report that main() prints as JSON.
///
/// Spans are recorded from the benchmark's own code around each call into
/// an engine layer (Engine::Run, EngineServer::Run, Pipeline::Run, exec
/// kernels, prepare calls). Counters the program already publishes
/// (RunStats, RunResult::backend_metrics, admission stats, ScanPruneStats,
/// Pipeline::timings) are attached to the span that produced them. Per-layer
/// metrics are derived from these spans by vxbench/vxtrace.py.

#ifndef VXBENCH_HARNESS_H_
#define VXBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace vxbench {

using Clock = std::chrono::steady_clock;

/// \brief Command-line configuration of one workload run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< measured window (set-up and checks excluded)
  bool trace = false;   ///< second half of the window records spans
  bool tiny = false;    ///< smoke-test input sizes
  /// The `threads` request knob of every run. One thread: on shared
  /// machines nproc-thread runs vary far more between runs than
  /// single-thread ones (see vxbench/README.md).
  int threads = 1;
};

/// \name Sample statistics
/// @{
double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double SecondsSince(Clock::time_point start);
/// @}

/// \brief Peak resident set of this process, in MB (VmHWM).
double PeakRssMb();

/// \brief Minimal JSON string escaping.
std::string JsonEscape(const std::string& s);

/// \brief One recorded span. Times are seconds since the tracer's origin.
struct SpanRecord {
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = root
  std::string name;
  double start = 0;
  double end = 0;
  int64_t request = 0;  ///< request id (serve-mix), else repetition id
  std::map<std::string, double> counters;
  std::map<std::string, std::string> attrs;
};

/// \brief In-memory span store. Disabled tracers record nothing and return
/// span id 0, so call sites need no branches. Thread-safe.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }

  /// Seconds since the tracer's origin.
  double Now() const { return SecondsSince(origin_); }
  double ToTraceTime(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  /// Opens a span starting now.
  int64_t Begin(const std::string& name, int64_t parent, int64_t request = 0);
  /// Closes a span at now.
  void End(int64_t id);
  /// Records a span with explicit bounds (laid out from engine-reported
  /// phase times, or from a request's due time).
  int64_t Add(const std::string& name, int64_t parent, double start,
              double end, int64_t request = 0);
  void Counter(int64_t id, const std::string& key, double value);
  void Attr(int64_t id, const std::string& key, const std::string& value);

  std::string ToJson() const;

 private:
  std::atomic<bool> enabled_{false};
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // spans_[id - 1]
};

/// \brief RAII span: Begin on construction, End on destruction.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, int64_t parent,
       int64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~Span() { tracer_->End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t id() const { return id_; }
  void Counter(const std::string& key, double value) {
    tracer_->Counter(id_, key, value);
  }
  void Attr(const std::string& key, const std::string& value) {
    tracer_->Attr(id_, key, value);
  }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// \brief What one workload run reports: end-to-end metrics by name, input
/// sizes, output-check tallies and the trace.
class Report {
 public:
  explicit Report(Config config) : config_(std::move(config)) {}

  const Config& config() const { return config_; }
  Tracer* tracer() { return &tracer_; }

  /// Records one end-to-end metric (value, unit, number of samples).
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples);
  /// Records a timing metric as the median of `samples`.
  void MedianMetric(const std::string& name, const std::vector<double>& v,
                    double scale, const std::string& unit);
  void Input(const std::string& name, double value) { inputs_[name] = value; }

  /// Counts one checked operation; a false `ok` is a failure, and `what`
  /// is printed to stderr.
  void Check(bool ok, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// The report as one JSON object (metadata, inputs, metrics, tallies).
  std::string ToJson() const;

 private:
  struct Value {
    double value;
    std::string unit;
    int64_t samples;
  };
  Config config_;
  Tracer tracer_;
  std::mutex mutex_;  // guards the tallies (serve-mix checks from threads)
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, Value> metrics_;
  std::map<std::string, double> inputs_;
};

/// \brief Calls `body(-1)` once as an untraced, unmeasured warm-up, then
/// repeats `body(rep)` (rep = 0, 1, ...) until `seconds` have elapsed and at
/// least `min_reps` repetitions ran; `body` returns the repetition's
/// headline seconds. In trace mode the first half of the window runs untraced and the
/// second half traced; the ratio of the two halves' headline medians, minus
/// one, is recorded as `trace.overhead_frac` on a span under `root`.
void RunWindow(Report* report, int64_t root, int min_reps,
               const std::function<double(int)>& body);

}  // namespace vxbench

#endif  // VXBENCH_HARNESS_H_
