// Engine traffic shared by the serve-dense and durable-recover workloads:
// many short-lived streams of the sim::make_stream_jobs shape, served
// through a sliding set of concurrently open streams, plus the direct
// single-threaded PdScheduler replay that checks the engine's per-stream
// results bitwise and times individual decisions.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/pd_scheduler.hpp"
#include "ingest/op_log.hpp"
#include "sim/stream_sweep.hpp"
#include "stream/engine.hpp"

namespace perfbench {

namespace core = pss::core;
namespace ingest = pss::ingest;
namespace model = pss::model;
namespace sim = pss::sim;
namespace stream = pss::stream;

struct EngineTraffic {
  sim::StreamWorkloadConfig config;
  /// open / arrival / close ops in issue order.
  std::vector<ingest::IngestOp> ops;
  long long arrivals = 0;
};

/// Streams 0..config.num_streams-1, at most `live_streams` open at once:
/// the open streams take turns, one arrival each; a stream that has sent
/// its last job is closed and its turn goes to the next unopened stream.
[[nodiscard]] EngineTraffic make_engine_traffic(
    const sim::StreamWorkloadConfig& config, int live_streams, double alpha);

/// Applies one op through the engine's owner-thread API. Every refusal is
/// also counted in the engine's snapshot, so error_rate takes refusals from
/// engine_failures only.
void apply_op(stream::StreamEngine& engine, const ingest::IngestOp& op);

/// Sums the engine's failure counters that error_rate counts. late_rejects
/// are already folded into op_errors by the snapshot, so they are not
/// added twice. A restored engine carries the counters saved in its
/// checkpoint, so callers count only what grew after the restore.
[[nodiscard]] long long engine_failures(const stream::EngineSnapshot& snap);

/// True iff both result lists hold the same streams with bitwise-equal
/// planned energy and accept/reject counts.
[[nodiscard]] bool same_results(const std::vector<stream::StreamResult>& a,
                                const std::vector<stream::StreamResult>& b);

struct ReplayStats {
  // p50 and p99 of the wall time of one PdScheduler::on_arrival call, per
  // chunk of 2048 consecutive calls.
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  long long decision_samples = 0;
  std::vector<double> blob_bytes;  // io::save_scheduler of an end state
  std::size_t live_intervals_max = 0;
  std::size_t handle_space_max = 0;
  long long streams = 0;
  long long mismatches = 0;  // engine result differs from the replay
};

/// Replays every `stride`-th stream directly through a PdScheduler built
/// like the engine's sessions, compares planned energy and accept/reject
/// counts bitwise with the engine's closed result, and times each
/// decision. Each end state also makes a save/load round trip (the spill
/// path, traced as io.save_scheduler / io.load_scheduler) that must restore
/// the same planned energy.
void replay_sample(const EngineTraffic& traffic,
                   const stream::EngineOptions& options,
                   const std::vector<stream::StreamResult>& results,
                   int stride, Tracer* tracer, ReplayStats& stats);

/// Per-layer PD counter ratios (core, chen, convex, model) from counters
/// aggregated over the workload's sessions.
void report_pd_counters(const core::PdCounters& c, Report& report);

/// The per-layer metrics both engine workloads take the same way: from the
/// last round's engine snapshot, the traced spans and the direct replay.
void report_engine_layers(const stream::EngineSnapshot& snap,
                          const Tracer& tracer, const ReplayStats& replay,
                          double queue_depth_mean, Report& report);

}  // namespace perfbench
