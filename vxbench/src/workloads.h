/// \file workloads.h
/// \brief The four benchmark workloads and the helpers they share.
///
/// Every workload generates its inputs from the seed, sets up (timed as
/// `setup_s`, median of several set-ups), warms up, then measures for the
/// configured window. Outputs are checked outside the timed window; every
/// check is counted in the report's attempted/failed tallies.

#ifndef VXBENCH_WORKLOADS_H_
#define VXBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/run_types.h"
#include "harness.h"

namespace vxbench {

void RunPrDense(Report* report);
void RunSsspTail(Report* report);
void RunServeMix(Report* report);
void RunPipeHybrid(Report* report);

/// \brief Closed-loop capacity of the serve-mix request mix, in requests
/// per second (used once to fix the open-loop rate; see serve_mix.cc).
void CalibrateServeMix(Report* report);

/// \brief Installs `graph` into `repeats` fresh engines, timing LoadGraph
/// plus PrepareBackend of each of `backends` as one `setup_s` sample, and
/// records the median as `setup_s`. Returns the last engine.
std::unique_ptr<vertexica::Engine> SetUpEngine(
    Report* report, int64_t root, std::shared_ptr<const vertexica::Graph> graph,
    const std::vector<std::string>& backends, int repeats);

/// \brief One Engine::Run inside an `api.run` span under `parent`. With
/// `layer_counters` false the span gets its phase children but no per-layer
/// counters (for a second algorithm whose numbers would mix with the
/// workload's headline run).
struct TimedRun {
  bool ok = false;
  vertexica::RunResult result;
  double seconds = 0;  ///< wall time of Engine::Run
};
TimedRun RunTimed(Report* report, vertexica::Engine* engine,
                  const vertexica::RunRequest& request, int64_t parent,
                  bool layer_counters = true);

/// \brief Checks that repetitions of one request keep the same counts:
/// the first call per key records the fingerprint, later calls compare.
class CountLedger {
 public:
  void Check(Report* report, const std::string& key,
             const vertexica::RunResult& result);

 private:
  std::map<std::string, std::string> first_;
};

/// \brief Lays out the superstep and phase spans of `stats` under `parent`,
/// back to back from `start`.
void LayOutSupersteps(Tracer* tracer, int64_t parent,
                        const vertexica::RunStats& stats, double start);

/// \name Output checks (true = pass)
/// @{
bool ValuesExact(const std::vector<double>& got,
                 const std::vector<double>& want);
/// |got - want| <= rel_tol * |want| for every element.
bool ValuesClose(const std::vector<double>& got,
                 const std::vector<double>& want, double rel_tol);
/// @}

}  // namespace vxbench

#endif  // VXBENCH_WORKLOADS_H_
