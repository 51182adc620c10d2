#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string_view>

namespace perfbench {

namespace {

// What a user of the serving stack sees, per workload process.
constexpr MetricSpec kEndToEnd[] = {
    {"arrivals_per_s", "1/s"},  {"decision_p50_us", "us"},
    {"decision_p99_us", "us"},  {"recover_s", "s"},
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
};

// One row per layer metric of the traced run (README.md says which
// end-to-end metric each should move, on which workload).
constexpr MetricSpec kPerLayer[] = {
    {"ingest.wal_append_ns_p50", "ns"},
    {"ingest.wal_bytes_per_op", "B/op"},
    {"ingest.wal_decode_ns_p50", "ns"},
    {"stream.feed_ns_p50", "ns"},
    {"stream.feed_ns_p99", "ns"},
    {"stream.full_waits", "count"},
    {"stream.ops_per_batch", "ops"},
    {"stream.queue_depth_mean", "ops"},
    {"stream.shard_skew", "ratio"},
    {"stream.drain_tail_s", "s"},
    {"stream.checkpoint_ms_p50", "ms"},
    {"stream.checkpoint_ms_max", "ms"},
    {"stream.session_spills", "count"},
    {"stream.session_restores", "count"},
    {"stream.recover_frames_replayed", "count"},
    {"stream.recover_frames_skipped", "count"},
    {"core.on_arrival_ns_p50", "ns"},
    {"core.on_arrival_ns_p99", "ns"},
    {"core.advance_ns_p50", "ns"},
    {"core.accept_share", "ratio"},
    {"core.lazy_fast_path_share", "ratio"},
    {"chen.curve_rebuilds_per_arrival", "ratio"},
    {"chen.curve_cache_hit_ratio", "ratio"},
    {"convex.screened_share", "ratio"},
    {"convex.screen_prune_ratio", "ratio"},
    {"model.splits_per_arrival", "ratio"},
    {"model.max_intervals", "count"},
    {"model.max_window", "count"},
    {"model.live_intervals_end", "count"},
    {"model.handle_space_end", "count"},
    {"model.compacted_intervals", "count"},
    {"io.save_scheduler_us_p50", "us"},
    {"io.load_scheduler_us_p50", "us"},
    {"io.session_blob_bytes_p50", "B"},
    {"io.checkpoint_bytes", "B"},
    {"io.torn_parts", "count"},
    {"io.crc_bad_parts", "count"},
    {"trace.overhead_ratio", "ratio"},
};

void print_json_number(double v) {
  std::printf("%.17g", v);
}

}  // namespace

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * double(values.size()));
  const std::size_t index =
      std::size_t(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

void print_rounds(const char* what, const std::vector<double>& values) {
  std::printf("rounds %s:", what);
  for (double v : values) std::printf(" %.6g", v);
  std::printf("\n");
}

double tracing_overhead(const std::vector<double>& untraced,
                        const std::vector<double>& traced) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < traced.size() && i < untraced.size(); ++i)
    ratios.push_back(untraced[i] / traced[i]);
  return median(ratios);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Report::Report() {
  for (const MetricSpec& spec : kEndToEnd) end_to_end_.push_back({spec, 0.0});
  for (const MetricSpec& spec : kPerLayer) per_layer_.push_back({spec, 0.0});
}

void Report::set(const std::string& name, double value) {
  for (auto* table : {&end_to_end_, &per_layer_})
    for (Value& v : *table)
      if (name == v.spec.name) {
        if (!std::isfinite(value)) {
          check(false, "metric " + name + " is not finite");
          value = 0.0;
        }
        v.value = value;
        return;
      }
  throw std::invalid_argument("unknown metric " + name);
}

void Report::check(bool ok, const std::string& what) {
  std::printf("check %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) failures_.push_back(what);
}

void Report::print(bool trace) const {
  const auto print_table = [](const char* title,
                              const std::vector<Value>& table) {
    std::printf("%s\n", title);
    for (const Value& v : table)
      std::printf("  %-34s %16.6g %s\n", v.spec.name, v.value, v.spec.unit);
  };
  print_table("end-to-end metrics:", end_to_end_);
  if (trace) print_table("per-layer metrics (traced run):", per_layer_);
  std::printf("error_rate %.6g (failed %lld / attempted %lld ops)\n",
              attempted_ > 0 ? double(failed_) / double(attempted_) : 0.0,
              failed_, attempted_);
  for (const std::string& failure : failures_)
    std::printf("FAILED CHECK: %s\n", failure.c_str());

  const std::vector<Value>& reported = trace ? per_layer_ : end_to_end_;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false", attempted_, failed_);
  for (std::size_t i = 0; i < reported.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                reported[i].spec.name);
    print_json_number(reported[i].value);
    std::printf(", \"unit\": \"%s\"}", reported[i].spec.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::int32_t Tracer::open(const char* name, std::uint64_t request) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_ns(), 0, parent, request});
  const auto index = std::int32_t(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[std::size_t(index)].end_ns = now_ns();
  stack_.pop_back();
}

double Tracer::percentile_ns(const char* name, double q) const {
  std::vector<double> durations;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name)
      durations.push_back(double(s.end_ns - s.start_ns));
  return percentile(durations, q);
}

void Tracer::print_self_times() const {
  // Children of one parent never overlap (one driving thread), so the time
  // they cover is the sum of their durations.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[std::size_t(s.parent)] += double(s.end_ns - s.start_ns);
  struct Row {
    std::size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::vector<double> durations;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = double(spans_[i].end_ns - spans_[i].start_ns);
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.total_ns += d;
    row.self_ns += d - child_ns[i];
    row.durations.push_back(d);
  }
  std::printf("span self times (%zu spans):\n", spans_.size());
  std::printf("  %-28s %9s %12s %12s %12s %12s\n", "span", "count",
              "total_ms", "self_ms", "p50_ns", "p99_ns");
  for (auto& [name, row] : rows) {
    const double p50 = percentile(row.durations, 0.50);
    const double p99 = percentile(row.durations, 0.99);
    std::printf("  %-28s %9zu %12.3f %12.3f %12.0f %12.0f\n", name.c_str(),
                row.count, row.total_ns * 1e-6, row.self_ns * 1e-6, p50, p99);
  }
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  os << "index\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
       << '\t' << s.parent << '\t' << s.request << '\n';
  }
  os.flush();
  return bool(os);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
