// Scaling of the sharded multi-stream serving engine (src/stream/):
// aggregate arrivals/sec multiplexing K independent PD streams over
// 1..16 worker shards.
//
// The workload is the dense tick-quantized regime of bench_throughput,
// replicated across K seeded streams and fed interleaved by release tick
// (sim::sweep_streams) — every stream shares the tick clock, so the engine
// sees the multiplexed shape real concurrent traffic produces. Since the
// ingest front end landed, this bench runs through the same producer/shard
// sweep driver as bench_ingest (bench/stream_sweep_json.hpp): one workload
// generator, one timing loop, one JSON run record. Streams are independent
// PD instances, so the work is embarrassingly parallel and the engine
// should scale with shards until the machine runs out of cores;
// `hardware_concurrency` is recorded in the JSON so a flat curve on a
// small box reads as a hardware ceiling, not an engine ceiling.
//
// Determinism guard: before timing, the driver replays a sub-population of
// streams directly through PdScheduler and compares per-arrival decisions
// bitwise against the engine's results, and every timed configuration must
// reproduce identical per-stream energies and accept counts at every shard
// count. Any mismatch voids the numbers and fails the process.
//
// Output: the human table, a CSV mirror, and BENCH_shard.json (format in
// docs/BUILDING.md).
//
// Env knobs (all optional):
//   PSS_SHARD_JOBS         arrivals per stream          (default 32)
//   PSS_SHARD_MAX_STREAMS  cap on the stream counts     (default 10000)
//   PSS_SHARD_MAX_SHARDS   cap on the shard counts      (default 16)
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "sim/stream_sweep.hpp"
#include "stream/engine.hpp"
#include "stream_sweep_json.hpp"
#include "util/table.hpp"

namespace {

using pss::sim::StreamSweepResult;
using pss::sim::StreamWorkloadConfig;
using pss::stream::EngineOptions;

const pss::model::Machine kMachine{4, 2.0};
constexpr std::uint64_t kBaseSeed = 1000;  // per-stream seeds derive from it

StreamWorkloadConfig make_config(int num_streams, int jobs_per_stream) {
  StreamWorkloadConfig config;  // dense regime: 50 jobs/tick, spans 8..24
  config.num_streams = num_streams;
  config.jobs_per_stream = jobs_per_stream;
  config.base_seed = kBaseSeed;
  return config;
}

EngineOptions make_options(std::size_t shards, bool record_decisions) {
  EngineOptions options;
  options.num_shards = shards;
  options.queue_capacity = 4096;
  options.machine = kMachine;
  options.record_decisions = record_decisions;
  return options;
}

void BM_EngineIngest(benchmark::State& state) {
  const StreamWorkloadConfig config = make_config(64, 16);
  const EngineOptions options =
      make_options(std::size_t(state.range(0)), false);
  for (auto _ : state)
    benchmark::DoNotOptimize(pss::sim::sweep_streams(config, options));
  state.SetItemsProcessed(state.iterations() * 64 * 16);
}
BENCHMARK(BM_EngineIngest)
    ->Arg(1)
    ->Arg(4)
    ->ArgNames({"shards"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int jobs_per_stream = pss::bench::env_int("PSS_SHARD_JOBS", 32);
  const int max_streams =
      pss::bench::env_int("PSS_SHARD_MAX_STREAMS", 10000);
  const int max_shards = pss::bench::env_int("PSS_SHARD_MAX_SHARDS", 16);

  std::vector<int> stream_counts;
  for (int streams : {1000, 10000})
    if (streams <= max_streams) stream_counts.push_back(streams);
  if (stream_counts.empty()) stream_counts.push_back(max_streams);
  std::vector<std::size_t> shard_counts;
  for (int shards : {1, 2, 4, 8, 16})
    if (shards <= max_shards) shard_counts.push_back(std::size_t(shards));
  if (shard_counts.empty()) shard_counts.push_back(1);

  pss::bench::print_header(
      "SHARD-SCALE",
      "sharded multi-stream engine: aggregate arrivals/sec vs shard count");
  std::cout << "hardware_concurrency: "
            << std::thread::hardware_concurrency() << "\n";

  bool determinism_match = true;

  // Differential guard vs the direct scheduler on a small sub-population.
  {
    const StreamWorkloadConfig config =
        make_config(std::min(64, max_streams), jobs_per_stream);
    const auto result = pss::sim::sweep_streams(
        config, make_options(shard_counts.back(), true));
    determinism_match =
        pss::bench::check_against_direct(config, result, kMachine);
  }

  pss::util::Table table({"streams", "shards", "arrivals", "arr/s", "speedup",
                          "accept %", "closed energy"});
  table.set_precision(2);
  using pss::bench::JsonValue;
  JsonValue runs = JsonValue::array();
  JsonValue speedups = JsonValue::object();

  for (int num_streams : stream_counts) {
    const StreamWorkloadConfig config =
        make_config(num_streams, jobs_per_stream);
    StreamSweepResult base;
    JsonValue per_shards = JsonValue::object();
    for (std::size_t shards : shard_counts) {
      const EngineOptions options = make_options(shards, false);
      const StreamSweepResult result =
          pss::sim::sweep_streams(config, options);
      if (shards == shard_counts.front()) {
        base = result;
      } else if (!pss::bench::same_streams(base, result)) {
        determinism_match = false;
        std::cerr << "FATAL: per-stream results differ between "
                  << shard_counts.front() << " and " << shards
                  << " shards at " << num_streams << " streams\n";
      }
      const auto& snap = result.snapshot;
      const double speedup =
          result.arrivals_per_sec / base.arrivals_per_sec;
      const double accept_pct =
          snap.arrivals > 0
              ? 100.0 * double(snap.accepted) / double(snap.arrivals)
              : 0.0;
      table.add_row({(long long)num_streams, (long long)shards,
                     snap.arrivals, result.arrivals_per_sec, speedup,
                     accept_pct, snap.closed_energy});
      runs.push(pss::bench::sweep_run_json(config, options, result));
      if (shards != shard_counts.front())
        per_shards.set(std::to_string(shards) + "v" +
                           std::to_string(shard_counts.front()),
                       JsonValue::number(speedup));
    }
    speedups.set(std::to_string(num_streams), std::move(per_shards));
  }

  pss::bench::emit(table, "shard_scale.csv");
  std::cout << "expected shape: arr/s grows with shards until the core "
               "count is exhausted; per-stream results identical at every "
               "shard count\n";

  JsonValue root = JsonValue::object();
  root.set("bench", JsonValue::string("shard_scale"))
      .set("machine",
           JsonValue::object()
               .set("processors", JsonValue::integer(kMachine.num_processors))
               .set("alpha", JsonValue::number(kMachine.alpha)))
      .set("jobs_per_stream", JsonValue::integer(jobs_per_stream))
      .set("determinism_match", JsonValue::boolean(determinism_match))
      .set("runs", std::move(runs))
      .set("speedup", std::move(speedups));
  // hardware_concurrency and the workload seed are stamped uniformly by
  // emit_json; the seed is StreamWorkloadConfig::base_seed.
  pss::bench::emit_json(std::move(root), "BENCH_shard.json", kBaseSeed);

  if (!determinism_match) return 1;
  return pss::bench::run_benchmarks(argc, argv);
}
