#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace vxbench {

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// ---- Tracer ---------------------------------------------------------------

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      int64_t request) {
  if (!enabled()) return 0;
  const double now = Now();
  return Add(name, parent, now, now, request);
}

void Tracer::End(int64_t id) {
  if (id == 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id - 1)].end = now;
}

int64_t Tracer::Add(const std::string& name, int64_t parent, double start,
                    double end, int64_t request) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name = name;
  span.start = start;
  span.end = end;
  span.request = request;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Counter(int64_t id, const std::string& key, double value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id - 1)].counters[key] = value;
}

void Tracer::Attr(int64_t id, const std::string& key,
                  const std::string& value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id - 1)].attrs[key] = value;
}

std::string Tracer::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << JsonEscape(s.name) << "\",\"start\":" << Num(s.start)
        << ",\"end\":" << Num(s.end) << ",\"request\":" << s.request
        << ",\"counters\":{";
    bool first = true;
    for (const auto& [key, value] : s.counters) {
      out << (first ? "" : ",") << "\"" << JsonEscape(key)
          << "\":" << Num(value);
      first = false;
    }
    out << "},\"attrs\":{";
    first = true;
    for (const auto& [key, value] : s.attrs) {
      out << (first ? "" : ",") << "\"" << JsonEscape(key) << "\":\""
          << JsonEscape(value) << "\"";
      first = false;
    }
    out << "}}";
  }
  out << "]}\n";
  return out.str();
}

// ---- Report ---------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  metrics_[name] = {value, unit, samples};
}

void Report::MedianMetric(const std::string& name,
                          const std::vector<double>& v, double scale,
                          const std::string& unit) {
  Metric(name, Median(v) * scale, unit, static_cast<int64_t>(v.size()));
}

void Report::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "vxbench: check failed: %s\n", what.c_str());
  }
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"workload\":\"" << JsonEscape(config_.workload) << "\""
      << ",\"seed\":" << config_.seed << ",\"seconds\":" << Num(config_.seconds)
      << ",\"trace\":" << (config_.trace ? "true" : "false")
      << ",\"tiny\":" << (config_.tiny ? "true" : "false")
      << ",\"build_type\":\"" << VXBENCH_BUILD_TYPE << "\""
#ifdef VERTEXICA_DCHECK
      << ",\"dcheck\":true"
#else
      << ",\"dcheck\":false"
#endif
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"threads\":" << config_.threads
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"inputs\":{";
  bool first = true;
  for (const auto& [key, value] : inputs_) {
    out << (first ? "" : ",") << "\"" << JsonEscape(key) << "\":" << Num(value);
    first = false;
  }
  out << "},\"metrics\":{";
  first = true;
  for (const auto& [key, m] : metrics_) {
    out << (first ? "" : ",") << "\"" << JsonEscape(key)
        << "\":{\"value\":" << Num(m.value) << ",\"unit\":\""
        << JsonEscape(m.unit) << "\",\"samples\":" << m.samples << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---- Measurement window ----------------------------------------------------

void RunWindow(Report* report, int64_t root, int min_reps,
               const std::function<double(int)>& body) {
  const Config& config = report->config();
  Tracer* tracer = report->tracer();
  tracer->set_enabled(false);
  body(-1);  // warm-up: lazy caches fill before timing; never traced
  std::vector<double> untraced;
  std::vector<double> traced;
  const Clock::time_point start = Clock::now();
  int rep = 0;
  for (;; ++rep) {
    const double elapsed = SecondsSince(start);
    const bool trace_now = config.trace && elapsed >= config.seconds / 2;
    const bool enough = rep >= min_reps &&
                        (!config.trace || (untraced.size() >= 1 &&
                                           traced.size() >= 1));
    if (elapsed >= config.seconds && enough) break;
    tracer->set_enabled(trace_now);
    const double headline = body(rep);
    (trace_now ? traced : untraced).push_back(headline);
  }
  tracer->set_enabled(config.trace);
  if (config.trace && !untraced.empty() && !traced.empty()) {
    const double now = tracer->Now();
    const int64_t id = tracer->Add("trace.overhead", root, now, now);
    tracer->Counter(id, "trace.overhead_frac",
                    Median(traced) / Median(untraced) - 1.0);
  }
}

}  // namespace vxbench
