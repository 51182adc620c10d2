// Shared helpers for the benchmark harness.
//
// Every bench binary prints its paper-shaped table(s) to stdout, mirrors
// them to CSV under sim::result_dir(), and then runs its registered
// google-benchmark timings (kept small so the default `for b in bench/*`
// loop stays fast).
#pragma once

#include <benchmark/benchmark.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "util/table.hpp"

namespace pss::bench {

inline void print_header(const std::string& experiment_id,
                         const std::string& what) {
  std::cout << "\n================================================================\n"
            << experiment_id << " — " << what << "\n"
            << "================================================================\n";
}

inline void emit(const util::Table& table, const std::string& csv_name) {
  table.print(std::cout);
  const std::string path = sim::result_dir() + "/" + csv_name;
  table.write_csv(path);
  std::cout << "(csv: " << path << ")\n";
}

inline double alpha_to_alpha(double alpha) { return std::pow(alpha, alpha); }

// ---------------------------------------------------------------------------
// Minimal JSON emitter for machine-readable bench outputs (BENCH_*.json next
// to the CSV mirrors). Supports the subset the drivers need: objects with
// insertion-ordered keys, arrays, numbers, strings, booleans. Non-finite
// numbers serialize as null so the output always parses.
// ---------------------------------------------------------------------------
class JsonValue {
 public:
  [[nodiscard]] static JsonValue object() { return JsonValue(Kind::kObject); }
  [[nodiscard]] static JsonValue array() { return JsonValue(Kind::kArray); }
  [[nodiscard]] static JsonValue number(double v) {
    JsonValue j(Kind::kNumber);
    j.number_ = v;
    return j;
  }
  [[nodiscard]] static JsonValue integer(long long v) {
    JsonValue j(Kind::kInteger);
    j.integer_ = v;
    return j;
  }
  [[nodiscard]] static JsonValue string(std::string v) {
    JsonValue j(Kind::kString);
    j.string_ = std::move(v);
    return j;
  }
  [[nodiscard]] static JsonValue boolean(bool v) {
    JsonValue j(Kind::kBool);
    j.bool_ = v;
    return j;
  }

  JsonValue& set(const std::string& key, JsonValue value) {
    members_.emplace_back(key, std::move(value));
    return *this;
  }
  JsonValue& push(JsonValue value) {
    members_.emplace_back(std::string(), std::move(value));
    return *this;
  }

  void write(std::ostream& os, int indent = 0) const {
    const std::string pad(std::size_t(indent) * 2, ' ');
    const std::string inner(std::size_t(indent + 1) * 2, ' ');
    switch (kind_) {
      case Kind::kObject:
      case Kind::kArray: {
        const bool is_object = kind_ == Kind::kObject;
        os << (is_object ? '{' : '[');
        for (std::size_t i = 0; i < members_.size(); ++i) {
          os << (i == 0 ? "\n" : ",\n") << inner;
          if (is_object) os << quoted(members_[i].first) << ": ";
          members_[i].second.write(os, indent + 1);
        }
        if (!members_.empty()) os << '\n' << pad;
        os << (is_object ? '}' : ']');
        break;
      }
      case Kind::kNumber:
        if (std::isfinite(number_)) {
          std::ostringstream tmp;
          tmp.precision(17);
          tmp << number_;
          os << tmp.str();
        } else {
          os << "null";
        }
        break;
      case Kind::kInteger:
        os << integer_;
        break;
      case Kind::kString:
        os << quoted(string_);
        break;
      case Kind::kBool:
        os << (bool_ ? "true" : "false");
        break;
    }
  }

  [[nodiscard]] std::string dump() const {
    std::ostringstream os;
    write(os);
    return os.str();
  }

 private:
  enum class Kind { kObject, kArray, kNumber, kInteger, kString, kBool };
  explicit JsonValue(Kind kind) : kind_(kind) {}

  [[nodiscard]] static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
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
    return out + "\"";
  }

  Kind kind_;
  std::vector<std::pair<std::string, JsonValue>> members_;  // object/array
  double number_ = 0.0;
  long long integer_ = 0;
  std::string string_;
  bool bool_ = false;
};

// Build provenance, passed in as compile definitions by CMakeLists.txt.
#ifndef PSS_BENCH_BUILD_TYPE
#define PSS_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PSS_BENCH_COMPILER
#define PSS_BENCH_COMPILER "unknown"
#endif
#ifndef PSS_BENCH_CXX_FLAGS
#define PSS_BENCH_CXX_FLAGS "unknown"
#endif
#ifndef PSS_BENCH_SOURCE_DIR
#define PSS_BENCH_SOURCE_DIR "."
#endif

/// HEAD commit of the source tree, read when the JSON is written, or
/// "unavailable" outside a git checkout.
inline std::string git_sha() {
  const std::string command = std::string("git -C '") + PSS_BENCH_SOURCE_DIR +
                              "' rev-parse HEAD 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "unavailable";
  char line[128] = {};
  const bool read = std::fgets(line, sizeof(line), pipe) != nullptr;
  const int status = pclose(pipe);
  std::string sha = read ? line : "";
  while (!sha.empty() && std::isspace(static_cast<unsigned char>(sha.back())))
    sha.pop_back();
  return status == 0 && !sha.empty() ? sha : "unavailable";
}

/// Current UTC time, ISO 8601 (e.g. "2026-01-31T12:00:00Z").
inline std::string utc_date() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char text[32];
  std::strftime(text, sizeof(text), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return text;
}

/// Writes `root` to sim::result_dir()/name and echoes the path. Every
/// BENCH_*.json uniformly records the machine's hardware_concurrency (so a
/// multi-core re-measurement is comparable against numbers taken on a
/// small box), the workload seed the driver generated its streams from
/// (so the exact run is reproducible), and the build that produced the
/// numbers (build type, compiler and version, CXX flags — absolute rates
/// from different builds are not comparable), the source tree's HEAD commit
/// and when it ran (git_sha, date: both read at run time); the fields are
/// stamped here rather than ad hoc per driver.
inline void emit_json(JsonValue root, const std::string& name,
                      std::uint64_t workload_seed) {
  root.set("hardware_concurrency",
           JsonValue::integer(
               (long long)std::thread::hardware_concurrency()))
      .set("workload_seed", JsonValue::integer((long long)workload_seed))
      .set("build_type", JsonValue::string(PSS_BENCH_BUILD_TYPE))
      .set("compiler", JsonValue::string(PSS_BENCH_COMPILER))
      .set("cxx_flags", JsonValue::string(PSS_BENCH_CXX_FLAGS))
      .set("git_sha", JsonValue::string(git_sha()))
      .set("date", JsonValue::string(utc_date()));
  const std::string path = sim::result_dir() + "/" + name;
  std::ofstream out(path);
  root.write(out);
  out << "\n";
  std::cout << "(json: " << path << ")\n";
}

/// Standard tail: parse benchmark flags and run the registered timings.
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace pss::bench
