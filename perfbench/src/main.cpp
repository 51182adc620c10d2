// The repository benchmark program. Runs one workload per process:
//
//   pss_perfbench --workload serve-dense|wide-lookahead|durable-recover
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//                 [--git-sha SHA] [--source-sha256 HASH]
//
// prints provenance, the checks, the metrics by name with their unit, and as
// its last line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end table, with --trace 1 the
// per-layer table of the traced run. Exits 1 when an output check fails, 2
// on a usage error. perfbench/run.py builds this binary and runs it.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

const char* build_type() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "optimized, NDEBUG (Release-like)";
#elif defined(__OPTIMIZE__)
  return "optimized, asserts on (RelWithDebInfo-like)";
#else
  return "unoptimized (Debug-like)";
#endif
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: pss_perfbench --workload "
               "serve-dense|wide-lookahead|durable-recover --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--git-sha SHA] "
               "[--source-sha256 HASH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const char* value = argv[++i];
    if (!std::strcmp(flag, "--workload")) {
      args.workload = value;
    } else if (!std::strcmp(flag, "--seed")) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (!std::strcmp(flag, "--seconds")) {
      args.seconds = std::atof(value);
    } else if (!std::strcmp(flag, "--trace")) {
      args.trace = std::atoi(value) != 0;
    } else if (!std::strcmp(flag, "--work-dir")) {
      args.work_dir = value;
    } else if (!std::strcmp(flag, "--git-sha")) {
      args.git_sha = value;
    } else if (!std::strcmp(flag, "--source-sha256")) {
      args.source_sha256 = value;
    } else {
      return usage("unknown flag");
    }
  }
  void (*run)(const Args&, perfbench::Report&) = nullptr;
  if (args.workload == "serve-dense") run = perfbench::run_serve_dense;
  if (args.workload == "wide-lookahead") run = perfbench::run_wide_lookahead;
  if (args.workload == "durable-recover") run = perfbench::run_durable_recover;
  if (!run) return usage("unknown --workload");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  if (args.work_dir.empty()) return usage("--work-dir is required");
  std::filesystem::create_directories(args.work_dir);

  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"source_sha256\": \"%s\", "
      "\"build\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": \"%s\", "
      "\"cores\": %d, "
      "\"date\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, int(args.trace), args.git_sha.c_str(),
      args.source_sha256.c_str(), build_type(), PERFBENCH_CXX_FLAGS, kCompiler,
      usable_cores(),
      utc_now().c_str());
  std::fflush(stdout);

  perfbench::Report report;
  try {
    run(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print(args.trace);
  return report.correct() ? 0 : 1;
}
