/// \file main.cc
/// \brief vxbench: runs one benchmark workload and prints its report.
///
///   vxbench --workload pr-dense --seed 1 --seconds 20 [--trace 1
///           --trace-out trace.json] [--tiny]
///
/// Prints one JSON object (see Report::ToJson) as the last line of stdout
/// and exits 0 when every output check passed, 1 otherwise. vxbench/run.py
/// is the user-facing front end to this binary.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: vxbench --workload pr-dense|sssp-tail|serve-mix|"
               "pipe-hybrid --seed N --seconds S [--trace 0|1] "
               "[--trace-out FILE] [--tiny] [--calibrate]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vxbench::Config config;
  std::string trace_out;
  bool calibrate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--calibrate") {
      calibrate = true;
    } else {
      return Usage();
    }
  }

  vxbench::Report report(config);
  // Set-up is traced in trace mode; RunWindow switches tracing per half.
  report.tracer()->set_enabled(config.trace);
  if (calibrate && config.workload == "serve-mix") {
    vxbench::CalibrateServeMix(&report);
  } else if (config.workload == "pr-dense") {
    vxbench::RunPrDense(&report);
  } else if (config.workload == "sssp-tail") {
    vxbench::RunSsspTail(&report);
  } else if (config.workload == "serve-mix") {
    vxbench::RunServeMix(&report);
  } else if (config.workload == "pipe-hybrid") {
    vxbench::RunPipeHybrid(&report);
  } else {
    return Usage();
  }
  report.Metric("peak_rss_mb", vxbench::PeakRssMb(), "MB", 1);
  report.Metric("fail_frac",
                static_cast<double>(report.failed()) /
                    static_cast<double>(std::max<int64_t>(1, report.attempted())),
                "ratio", report.attempted());

  if (config.trace && !trace_out.empty()) {
    std::ofstream out(trace_out);
    out << report.tracer()->ToJson();
    if (!out) {
      std::fprintf(stderr, "vxbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
