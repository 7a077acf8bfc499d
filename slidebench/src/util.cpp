#include "util.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace slidebench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double host_steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  double fields[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& f : fields) {
    if (!(in >> f)) return 0.0;
  }
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void CheckLog::expect(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

PhaseCount& RunResult::phase(const std::string& name) {
  for (PhaseCount& p : phases) {
    if (p.phase == name) return p;
  }
  phases.push_back({name, 0, 0});
  return phases.back();
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const RunResult& r, bool traced) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PhaseCount& p : r.phases) {
    attempted += p.attempted;
    failed += p.failed;
  }
  std::ostringstream out;
  out << "{\"correct\": " << (r.checks.ok() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  const std::vector<Metric>& ms = traced ? r.layer_metrics : r.metrics;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": "
        << json_number(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

Tracer::Tracer() : origin_(Clock::now()) {
  spans_.push_back({"root", 0, origin_, origin_});
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent) {
  spans_.push_back({name, parent, Clock::now(), {}});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "id,parent,name,start_us,end_us\n";
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (std::size_t i = 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.name << ',' << us(s.start) << ','
        << us(s.end) << '\n';
  }
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace slidebench
