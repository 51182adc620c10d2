// Shared pieces of the repository benchmark: command-line arguments, the
// metric tables every run reports, order statistics, and the span tracer
// the traced run records around each call into the library.
//
// The benchmark drives the library from outside, through its public API.
// Spans are recorded by this benchmark's code around the calls it makes;
// spans inside the library are not part of this benchmark.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch files (WAL, checkpoints, traces)
  std::string git_sha = "unknown";
  std::string source_sha256 = "unknown";
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return double(now_ns() - start_ns) * 1e-9;
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty. Sorts
/// its argument.
[[nodiscard]] double percentile(std::vector<double>& values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(values, 0.5);
}

/// A derived per-step seed, so one --seed fans out into independent
/// streams of generator input.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// ---------------------------------------------------------------------------
// Reported metrics. Every run reports the same names, so the tables live in
// one place (bench.cpp); a workload fills the ones its traffic exercises and
// the rest of the per-layer table stays 0 ("this layer did no such work").
// ---------------------------------------------------------------------------
struct MetricSpec {
  const char* name;
  const char* unit;
};

class Report {
 public:
  Report();

  /// Sets a metric of either table; throws on an unknown name.
  void set(const std::string& name, double value);
  /// Records an output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);

  void add_attempted(long long n) { attempted_ += n; }
  void add_failed(long long n) { failed_ += n; }

  [[nodiscard]] bool correct() const { return failures_.empty(); }

  /// Human-readable metric lines, then the one-line JSON result.
  void print(bool trace) const;

 private:
  struct Value {
    MetricSpec spec;
    double value = 0.0;
  };
  std::vector<Value> end_to_end_;
  std::vector<Value> per_layer_;
  std::vector<std::string> failures_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

// ---------------------------------------------------------------------------
// Span tracer (traced run only). A span records name, start, end, parent
// span and request id; spans stay in memory and are written once at the
// end. A disabled tracer costs one branch per scope and reads no clock.
// Single-threaded: every span is opened on the benchmark's driving thread.
// ---------------------------------------------------------------------------
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index into spans(), -1 for a root
    std::uint64_t request;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request)
        : tracer_(tracer && tracer->enabled_ ? tracer : nullptr) {
      if (tracer_) index_ = tracer_->open(name, request);
    }
    ~Scope() {
      if (tracer_) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] std::uint64_t next_request() { return ++requests_; }

  /// Percentile (q in [0, 1]) of the durations, in ns, of the spans called
  /// `name`; 0 when there are none.
  [[nodiscard]] double percentile_ns(const char* name, double q) const;

  /// Per-name count, total, self time (duration minus the time its child
  /// spans cover) and duration percentiles, printed as a table.
  void print_self_times() const;
  /// Writes every span as one tab-separated line; returns false on IO
  /// failure.
  bool write(const std::string& path) const;

 private:
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t index);

  bool enabled_;
  std::uint64_t requests_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;  // open spans, innermost last
};

/// Opens a span on `tracer` (may be null) for the enclosing scope.
#define PERFBENCH_SPAN(tracer, name, request)                         \
  ::perfbench::Tracer::Scope PERFBENCH_CONCAT(perfbench_span_, __LINE__)( \
      (tracer), (name), (request))
#define PERFBENCH_CONCAT_INNER(a, b) a##b
#define PERFBENCH_CONCAT(a, b) PERFBENCH_CONCAT_INNER(a, b)

/// High-water resident set of this process, MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Calls `round(i)` for i = 0, 1, ... until `budget_s` has elapsed, at
/// least `min_rounds` and at most `max_rounds` times. Each round index
/// selects its own generator input, so a run averages over several
/// independent inputs.
template <typename Round>
void repeat_rounds(double budget_s, int min_rounds, int max_rounds,
                   Round&& round) {
  const std::int64_t start = now_ns();
  for (int i = 0; i < max_rounds &&
                  (i < min_rounds || seconds_since(start) < budget_s);
       ++i)
    round(i);
}

/// Prints one value per round, so a run shows its own round-to-round spread.
void print_rounds(const char* what, const std::vector<double>& values);

/// Median over rounds i of untraced[i] / traced[i] (rates of the same
/// input with tracing off and on): 1.05 means tracing cost 5%.
[[nodiscard]] double tracing_overhead(const std::vector<double>& untraced,
                                      const std::vector<double>& traced);

// Workloads: each fills `report` (metrics, checks, failure accounting).
void run_serve_dense(const Args& args, Report& report);
void run_wide_lookahead(const Args& args, Report& report);
void run_durable_recover(const Args& args, Report& report);

}  // namespace perfbench
