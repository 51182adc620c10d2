// Producer scaling of the MPSC ingest front end (src/ingest/ +
// stream::StreamEngine::Producer): aggregate arrivals/sec feeding K
// independent PD streams from 1/2/4/8 concurrent producer threads.
//
// The workload, timing loop, and JSON run record are shared with
// bench_shard_scale through bench/stream_sweep_json.hpp — the only axis
// that changes is EngineOptions::max_producers (stream s is owned by
// producer slot s mod P, so per-stream FIFO is preserved by construction).
//
// In-driver guards — any failure voids the numbers and fails the process:
//   * producer-count invariance: per-stream energies/accept counts are
//     bitwise identical at every producer count, with and without a spill
//     budget, and against the direct PdScheduler on a sub-population;
//   * bounded residency: with a spill budget B the engine holds exactly B
//     resident sessions once the stream population exceeds B (checked
//     mid-run, before any close), restores on touch, and still closes
//     bitwise identical to the unbudgeted run;
//   * admission shedding: admission_depth sheds before the ring —
//     admission_rejects > 0 while queue_rejects stays 0 — and the shed
//     rate is recorded per run.
//
// Caveat recorded in the JSON: on a 1-core container every producer thread
// and every shard worker time-slice one CPU, so arrivals/sec is flat (or
// worse) in the producer count; the guards — not the speedups — are the
// portable signal. `hardware_concurrency` is stamped so readers can tell.
//
// Output: the human table, a CSV mirror, and BENCH_ingest.json (format in
// docs/BUILDING.md).
//
// Env knobs (all optional):
//   PSS_INGEST_JOBS           arrivals per stream        (default 8)
//   PSS_INGEST_MAX_STREAMS    cap on the stream counts   (default 100000)
//   PSS_INGEST_MAX_PRODUCERS  cap on the producer counts (default 8)
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
using pss::stream::StreamId;

const pss::model::Machine kMachine{4, 2.0};
constexpr std::uint64_t kBaseSeed = 1000;  // same workload as BENCH_shard

StreamWorkloadConfig make_config(int num_streams, int jobs_per_stream) {
  StreamWorkloadConfig config;
  config.num_streams = num_streams;
  config.jobs_per_stream = jobs_per_stream;
  config.base_seed = kBaseSeed;
  return config;
}

EngineOptions make_options(std::size_t producers, bool record_decisions) {
  EngineOptions options;
  options.num_shards = 4;
  options.queue_capacity = 4096;
  options.machine = kMachine;
  options.record_decisions = record_decisions;
  options.max_producers = producers;
  return options;
}

// Guard 2: feed a stream population through a budgeted engine and check the
// residency invariant mid-run (every stream still open), then close and
// compare bitwise against an unbudgeted run of the same workload. The
// budget is sized off the population (cap = budget x shards at 1/4 of the
// streams) so the guard exercises real spilling at any smoke scale.
bool check_bounded_residency(const StreamWorkloadConfig& config) {
  const std::size_t budget = std::max<std::size_t>(
      1, std::size_t(config.num_streams) / 16);
  std::vector<std::vector<pss::model::Job>> jobs;
  for (int s = 0; s < config.num_streams; ++s)
    jobs.push_back(
        pss::sim::make_stream_jobs(config, s, kMachine.alpha));

  EngineOptions budgeted_options = make_options(1, true);
  budgeted_options.spill.max_resident = budget;
  pss::stream::StreamEngine budgeted(budgeted_options);
  pss::stream::StreamEngine unbounded(make_options(1, true));
  for (int i = 0; i < config.jobs_per_stream; ++i) {
    for (int s = 0; s < config.num_streams; ++s) {
      budgeted.feed(StreamId(s), jobs[std::size_t(s)][std::size_t(i)]);
      unbounded.feed(StreamId(s), jobs[std::size_t(s)][std::size_t(i)]);
    }
  }
  budgeted.drain();
  unbounded.drain();
  const auto mid = budgeted.snapshot();
  // "Flat at the budget": the budget is per shard (each shard worker owns
  // an independent SessionTable), so with the population far above B the
  // aggregate residency sits at B * num_shards and the rest is spilled.
  const std::size_t cap = budget * budgeted_options.num_shards;
  bool ok = mid.open_streams == std::size_t(config.num_streams) &&
            mid.resident_sessions <= cap &&
            mid.spilled_sessions ==
                std::size_t(config.num_streams) - mid.resident_sessions &&
            mid.session_spills > 0 && mid.session_restores > 0;
  if (!ok) {
    std::cerr << "FATAL: residency not bounded: " << mid.resident_sessions
              << " resident / " << mid.spilled_sessions << " spilled under "
              << "budget " << budget << "\n";
    return false;
  }
  for (int s = 0; s < config.num_streams; ++s) {
    budgeted.close_stream(StreamId(s));
    unbounded.close_stream(StreamId(s));
  }
  pss::sim::StreamSweepResult a, b;
  a.streams = budgeted.finish();
  b.streams = unbounded.finish();
  if (!pss::bench::same_streams(a, b)) {
    std::cerr << "FATAL: spill on/off changed per-stream results\n";
    return false;
  }
  return true;
}

void BM_MpscIngest(benchmark::State& state) {
  const StreamWorkloadConfig config = make_config(64, 16);
  const EngineOptions options =
      make_options(std::size_t(state.range(0)), false);
  for (auto _ : state)
    benchmark::DoNotOptimize(pss::sim::sweep_streams(config, options));
  state.SetItemsProcessed(state.iterations() * 64 * 16);
}
BENCHMARK(BM_MpscIngest)
    ->Arg(1)
    ->Arg(4)
    ->ArgNames({"producers"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int jobs_per_stream = pss::bench::env_int("PSS_INGEST_JOBS", 8);
  const int max_streams =
      pss::bench::env_int("PSS_INGEST_MAX_STREAMS", 100000);
  const int max_producers =
      pss::bench::env_int("PSS_INGEST_MAX_PRODUCERS", 8);

  std::vector<int> stream_counts;
  for (int streams : {10000, 100000})
    if (streams <= max_streams) stream_counts.push_back(streams);
  if (stream_counts.empty()) stream_counts.push_back(max_streams);
  std::vector<std::size_t> producer_counts;
  for (int producers : {1, 2, 4, 8})
    if (producers <= max_producers)
      producer_counts.push_back(std::size_t(producers));

  pss::bench::print_header(
      "INGEST",
      "MPSC ingest front end: aggregate arrivals/sec vs producer count");
  std::cout << "hardware_concurrency: "
            << std::thread::hardware_concurrency() << "\n";

  bool guards_ok = true;

  // Guard 1a: direct-scheduler differential on a sub-population, fed
  // through the maximum producer count.
  {
    const StreamWorkloadConfig config =
        make_config(std::min(64, max_streams), jobs_per_stream);
    const auto result = pss::sim::sweep_streams(
        config, make_options(producer_counts.back(), true));
    guards_ok = pss::bench::check_against_direct(config, result, kMachine);
  }
  // Guard 1b: producer invariance holds under a spill budget too.
  {
    const StreamWorkloadConfig config =
        make_config(std::min(256, max_streams), jobs_per_stream);
    EngineOptions spilled = make_options(1, false);
    spilled.spill.max_resident = 16;
    const auto base = pss::sim::sweep_streams(config, spilled);
    spilled.max_producers = producer_counts.back();
    const auto multi = pss::sim::sweep_streams(config, spilled);
    if (!pss::bench::same_streams(base, multi)) {
      guards_ok = false;
      std::cerr << "FATAL: producer count changed results under spill\n";
    }
  }
  // Guard 2: bounded residency with spill on.
  guards_ok = check_bounded_residency(make_config(
                  std::min(512, max_streams), jobs_per_stream)) &&
              guards_ok;

  pss::util::Table table({"streams", "producers", "arrivals", "arr/s",
                          "vs 1p", "shed %", "closed energy"});
  table.set_precision(2);
  using pss::bench::JsonValue;
  JsonValue runs = JsonValue::array();
  JsonValue shed_rates = JsonValue::object();

  for (int num_streams : stream_counts) {
    const StreamWorkloadConfig config =
        make_config(num_streams, jobs_per_stream);
    StreamSweepResult base;
    for (std::size_t producers : producer_counts) {
      const EngineOptions options = make_options(producers, false);
      const StreamSweepResult result =
          pss::sim::sweep_streams(config, options);
      if (producers == producer_counts.front()) {
        base = result;
      } else if (!pss::bench::same_streams(base, result)) {
        guards_ok = false;
        std::cerr << "FATAL: per-stream results differ between "
                  << producer_counts.front() << " and " << producers
                  << " producers at " << num_streams << " streams\n";
      }
      const auto& snap = result.snapshot;
      table.add_row({(long long)num_streams, (long long)producers,
                     snap.arrivals,
                     result.arrivals_per_sec,
                     result.arrivals_per_sec / base.arrivals_per_sec, 0.0,
                     snap.closed_energy});
      runs.push(pss::bench::sweep_run_json(config, options, result));
    }

    // Guard 3 + record: admission_depth sheds before the ring. The
    // shed count is timing-dependent (it tracks real backlog), so the JSON
    // records the rate rather than pinning a value; the layering property
    // (shed at admission, not at the ring) is the guarded invariant.
    {
      EngineOptions options = make_options(producer_counts.back(), false);
      options.admission_depth = 64;
      const StreamSweepResult result =
          pss::sim::sweep_streams(config, options);
      const auto& snap = result.snapshot;
      if (snap.queue_rejects != 0) {
        guards_ok = false;
        std::cerr << "FATAL: ring rejects despite admission_depth\n";
      }
      const long long offered = snap.arrivals + snap.admission_rejects;
      const double shed_rate =
          offered > 0 ? double(snap.admission_rejects) / double(offered)
                      : 0.0;
      shed_rates.set(std::to_string(num_streams),
                     JsonValue::number(shed_rate));
      table.add_row({(long long)num_streams,
                     (long long)producer_counts.back(), snap.arrivals,
                     result.arrivals_per_sec,
                     result.arrivals_per_sec / base.arrivals_per_sec,
                     100.0 * shed_rate, snap.closed_energy});
      runs.push(pss::bench::sweep_run_json(config, options, result));
    }
  }

  pss::bench::emit(table, "ingest.csv");
  std::cout << "expected shape: on a many-core box arr/s grows with "
               "producers until cores are exhausted; on a 1-core container "
               "the curve is flat and only the guards are meaningful\n";

  JsonValue root = JsonValue::object();
  root.set("bench", JsonValue::string("ingest"))
      .set("machine",
           JsonValue::object()
               .set("processors", JsonValue::integer(kMachine.num_processors))
               .set("alpha", JsonValue::number(kMachine.alpha)))
      .set("jobs_per_stream", JsonValue::integer(jobs_per_stream))
      .set("determinism_match", JsonValue::boolean(guards_ok))
      .set("caveat",
           JsonValue::string(
               "producer speedups are only meaningful when "
               "hardware_concurrency exceeds producers + shards; on a "
               "1-core container the invariance guards are the signal"))
      .set("runs", std::move(runs))
      .set("admission_shed_rate", std::move(shed_rates));
  pss::bench::emit_json(std::move(root), "BENCH_ingest.json", kBaseSeed);

  if (!guards_ok) return 1;
  return pss::bench::run_benchmarks(argc, argv);
}
