// SOAK: flat-memory steady-state serving under horizon compaction.
//
// The scenario the serving engine actually runs: an endless stream whose
// arrivals and expiries balance, with a heartbeat advance after every tick
// (PdScheduler::advance_to(t, /*compact=*/true)) and per-arrival decision
// capture off. Structural memory is tracked through its exact proxies —
// the interval store's handle space (slab slots ever allocated, which also
// sizes the handle-keyed curve cache) and the live interval count.
//
// In-driver guards (exit nonzero on violation):
//   * flat memory with compaction: after warm-up, the slab stops growing —
//     the second half of the soak allocates no new handle space;
//   * linear growth without: an uncompacted twin's handle space grows with
//     the tick count (the regression this bench exists to pin);
//   * decisions_match: over a shared prefix, the compacted and uncompacted
//     engines commit bitwise-identical decisions and energies.
//
// Env knobs: PSS_SOAK_TICKS (soak length), PSS_SOAK_UNCOMPACTED_MAX
// (uncompacted-twin tick cap), PSS_RESULT_DIR. Output: BENCH_soak.json
// (schema in docs/BUILDING.md) + soak_samples.csv.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "core/pd_scheduler.hpp"
#include "model/job.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
using pss::core::ArrivalDecision;
using pss::core::PdOptions;
using pss::core::PdScheduler;
using pss::model::Job;

const pss::model::Machine kMachine{4, 2.5};
constexpr std::uint64_t kSeed = 20260807;

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

// One tick of steady-state traffic: a frontier job at the leading edge
// plus occasional wide, off-grid and low-value arrivals — windows span at
// most ~6 ticks, so the live window is O(1) in the soak length.
void tick_jobs(pss::util::Rng& rng, int t, pss::model::JobId& next_id,
               std::vector<Job>& out) {
  out.clear();
  const double tick = double(t);
  out.push_back({next_id++, tick, tick + 1.0, rng.uniform(0.3, 1.2),
                 pss::util::kInf});
  if (rng.bernoulli(0.4))
    out.push_back({next_id++, tick, tick + double(rng.uniform_int(2, 6)),
                   rng.uniform(0.5, 2.0), rng.uniform(2.0, 9.0)});
  if (rng.bernoulli(0.25))
    out.push_back({next_id++, tick + 0.3, tick + 2.3, rng.uniform(0.2, 1.0),
                   rng.uniform(1.0, 6.0)});
  if (rng.bernoulli(0.2))
    out.push_back({next_id++, tick + 0.5, tick + 1.5, rng.uniform(1.0, 3.0),
                   rng.uniform(0.01, 0.1)});
}

struct SoakRun {
  long long jobs = 0;
  double seconds = 0.0;
  std::size_t peak_handles_first_half = 0;
  std::size_t peak_handles = 0;
  std::size_t final_handles = 0;
  std::size_t final_live_intervals = 0;
  double planned_energy = 0.0;
  pss::core::PdCounters counters;
  // (tick, handle_space, live_intervals) samples for the JSON/CSV trace.
  std::vector<std::tuple<long long, std::size_t, std::size_t>> samples;
};

SoakRun run_soak(int ticks, bool compact, int sample_every) {
  PdOptions options;
  options.record_decisions = false;  // the serving posture: nothing grows
  PdScheduler pd(kMachine, options);
  pss::util::Rng rng(kSeed);
  pss::model::JobId next_id = 0;
  std::vector<Job> jobs;
  SoakRun run;
  const auto start = clock_type::now();
  for (int t = 0; t < ticks; ++t) {
    tick_jobs(rng, t, next_id, jobs);
    for (const Job& job : jobs) (void)pd.on_arrival(job);
    run.jobs += (long long)jobs.size();
    pd.advance_to(double(t + 1), compact);
    const std::size_t handles = pd.handle_space();
    run.peak_handles = std::max(run.peak_handles, handles);
    if (t < ticks / 2)
      run.peak_handles_first_half =
          std::max(run.peak_handles_first_half, handles);
    if (t % sample_every == 0 || t == ticks - 1)
      run.samples.emplace_back(t, handles, pd.live_intervals());
  }
  run.seconds =
      std::chrono::duration<double>(clock_type::now() - start).count();
  run.final_handles = pd.handle_space();
  run.final_live_intervals = pd.live_intervals();
  run.planned_energy = pd.planned_energy();
  run.counters = pd.counters();
  return run;
}

// Shared-prefix differential: identical decision streams with and without
// per-tick compaction (the bitwise contract the whole feature rests on).
bool run_differential(int ticks, double* compacted_energy,
                      double* plain_energy) {
  PdScheduler compacted(kMachine, {});
  PdScheduler plain(kMachine, {});
  pss::util::Rng rng(kSeed);
  pss::model::JobId next_id = 0;
  std::vector<Job> jobs;
  bool match = true;
  for (int t = 0; t < ticks && match; ++t) {
    tick_jobs(rng, t, next_id, jobs);
    for (const Job& job : jobs) {
      const ArrivalDecision a = compacted.on_arrival(job);
      const ArrivalDecision b = plain.on_arrival(job);
      match = match && a.accepted == b.accepted && a.speed == b.speed &&
              a.lambda == b.lambda && a.planned_energy == b.planned_energy;
    }
    compacted.advance_to(double(t + 1), /*compact=*/true);
    plain.advance_to(double(t + 1), /*compact=*/false);
  }
  *compacted_energy = compacted.planned_energy();
  *plain_energy = plain.planned_energy();
  return match && *compacted_energy == *plain_energy;
}

void BM_SoakTickCompacted(benchmark::State& state) {
  for (auto _ : state) {
    const SoakRun run = run_soak(2000, true, 512);
    benchmark::DoNotOptimize(run.final_handles);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_SoakTickCompacted)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int ticks = env_int("PSS_SOAK_TICKS", 120000);
  const int uncompacted_max = env_int("PSS_SOAK_UNCOMPACTED_MAX", 20000);

  pss::bench::print_header(
      "SOAK",
      "flat-memory steady-state serving: per-tick horizon compaction vs "
      "unbounded growth");

  using pss::bench::JsonValue;

  const int sample_every = std::max(1, ticks / 32);
  const SoakRun compacted = run_soak(ticks, true, sample_every);
  const int plain_ticks = std::min(ticks, uncompacted_max);
  const SoakRun plain =
      run_soak(plain_ticks, false, std::max(1, plain_ticks / 32));

  double diff_compacted_energy = 0.0, diff_plain_energy = 0.0;
  const bool decisions_match = run_differential(
      std::min(plain_ticks, 8000), &diff_compacted_energy, &diff_plain_energy);

  // Guard 1: with compaction the slab reaches steady state in the first
  // half and never grows again.
  const bool flat_memory =
      compacted.peak_handles <= compacted.peak_handles_first_half;
  // Guard 2: without compaction the slab grows with the horizon (one-plus
  // intervals per tick are created and never retired).
  const bool linear_growth_without =
      plain.final_handles >= std::size_t(plain_ticks);

  pss::util::Table table({"mode", "ticks", "jobs", "seconds", "ticks/s",
                          "peak slab", "final slab", "live ivs",
                          "compactions"});
  table.set_precision(1);
  table.add_row({std::string("compacted"), (long long)ticks, compacted.jobs,
                 compacted.seconds, double(ticks) / compacted.seconds,
                 (long long)compacted.peak_handles,
                 (long long)compacted.final_handles,
                 (long long)compacted.final_live_intervals,
                 compacted.counters.compactions});
  table.add_row({std::string("uncompacted"), (long long)plain_ticks,
                 plain.jobs, plain.seconds, double(plain_ticks) / plain.seconds,
                 (long long)plain.peak_handles, (long long)plain.final_handles,
                 (long long)plain.final_live_intervals,
                 plain.counters.compactions});
  pss::bench::emit(table, "soak_summary.csv");

  pss::util::Table trace({"tick", "handle_space", "live_intervals"});
  JsonValue samples = JsonValue::array();
  for (const auto& [t, handles, live] : compacted.samples) {
    trace.add_row({t, (long long)handles, (long long)live});
    samples.push(JsonValue::object()
                     .set("tick", JsonValue::integer(t))
                     .set("handle_space", JsonValue::integer((long long)handles))
                     .set("live_intervals", JsonValue::integer((long long)live)));
  }
  pss::bench::emit(trace, "soak_samples.csv");

  bool ok = true;
  if (!flat_memory) {
    ok = false;
    std::cerr << "FATAL: compacted slab grew after warm-up ("
              << compacted.peak_handles_first_half << " -> "
              << compacted.peak_handles << " handles) — memory not flat\n";
  }
  if (!linear_growth_without) {
    ok = false;
    std::cerr << "FATAL: uncompacted slab did not grow linearly ("
              << plain.final_handles << " handles over " << plain_ticks
              << " ticks) — the soak is not exercising retirement\n";
  }
  if (!decisions_match) {
    ok = false;
    std::cerr << "FATAL: compacted and uncompacted engines disagree — "
                 "compaction changed a decision or an energy\n";
  }

  auto run_json = [](const SoakRun& run, int run_ticks) {
    return JsonValue::object()
        .set("ticks", JsonValue::integer(run_ticks))
        .set("jobs", JsonValue::integer(run.jobs))
        .set("seconds", JsonValue::number(run.seconds))
        .set("ticks_per_sec", JsonValue::number(double(run_ticks) / run.seconds))
        .set("peak_handle_space",
             JsonValue::integer((long long)run.peak_handles))
        .set("final_handle_space",
             JsonValue::integer((long long)run.final_handles))
        .set("final_live_intervals",
             JsonValue::integer((long long)run.final_live_intervals))
        .set("compactions", JsonValue::integer(run.counters.compactions))
        .set("compacted_intervals",
             JsonValue::integer(run.counters.compacted_intervals))
        .set("planned_energy", JsonValue::number(run.planned_energy));
  };

  JsonValue root = JsonValue::object();
  root.set("bench", JsonValue::string("soak"))
      .set("machine", JsonValue::object()
                          .set("processors",
                               JsonValue::integer(kMachine.num_processors))
                          .set("alpha", JsonValue::number(kMachine.alpha)))
      .set("flat_memory", JsonValue::boolean(flat_memory))
      .set("linear_growth_without_compaction",
           JsonValue::boolean(linear_growth_without))
      .set("decisions_match", JsonValue::boolean(decisions_match))
      .set("compacted", run_json(compacted, ticks))
      .set("uncompacted", run_json(plain, plain_ticks))
      .set("samples", std::move(samples));
  pss::bench::emit_json(std::move(root), "BENCH_soak.json", kSeed);

  std::cout << "expected shape: compacted slab flat after warm-up (a few "
               "dozen handles) at any soak length; uncompacted slab grows "
               "~1.5 handles/tick; identical decisions either way\n";

  if (!ok) return 1;
  return pss::bench::run_benchmarks(argc, argv);
}
