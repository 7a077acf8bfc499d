// Measurement plumbing shared by the benchmark's workloads: exact order
// statistics over raw samples, the result record printed as the run's last
// line, in-memory span tracing, and the output-check log.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace slidebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Exact quantile of raw samples: linear interpolation between the two
// nearest order statistics (q in [0, 1]).  No bucketing, so a reported
// value moves with the data instead of jumping between bucket edges.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

// Host steal time (all CPUs) since boot, from /proc/stat.  A diagnostic
// for drift on shared hosts, not a metric.
double host_steal_seconds();

// CPU time of every thread of this process so far.  On a KVM guest with
// paravirtual steal accounting it leaves out the time the host took the
// vCPU away, which wall time cannot.
double process_cpu_seconds();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Operations attempted and failed in one phase of a run.
struct PhaseCount {
  std::string phase;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Collects output-check outcomes; any failed check makes the run incorrect.
class CheckLog {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::size_t checks() const { return checks_; }

 private:
  std::vector<std::string> failures_;
  std::size_t checks_ = 0;
};

struct RunResult {
  CheckLog checks;
  std::deque<PhaseCount> phases;  // deque: phase() references stay valid
  std::vector<Metric> metrics;          // end-to-end (untraced run)
  std::vector<Metric> layer_metrics;    // per-layer (traced run)

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void add_layer(const std::string& name, double value, const std::string& unit) {
    layer_metrics.push_back({name, value, unit});
  }
  PhaseCount& phase(const std::string& name);
};

// {"correct":..., "attempted":..., "failed":..., "metrics":{...}} on one line.
std::string result_json(const RunResult& r, bool traced);

// Spans kept in memory while the run goes and written out once at the end.
// A span id is its position in recording order; parent 0 is the root.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint32_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  Tracer();
  std::uint32_t begin(const char* name, std::uint32_t parent = 0);
  void end(std::uint32_t id) { spans_[id].end = Clock::now(); }
  double seconds(std::uint32_t id) const {
    return seconds_between(spans_[id].start, spans_[id].end);
  }
  // One line per span: id,parent,name,start_us,end_us (relative to the
  // tracer's creation).
  void write_csv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace slidebench
