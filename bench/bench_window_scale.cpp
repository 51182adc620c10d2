// Wide-window placement cost: the linear O(window) scan of the test-only
// reference oracle (tests/support/reference_pd) against the production
// engine's certified segment-tree screen, at probe window widths from ~1k
// to ~1M atomic intervals.
//
// Setup (per engine): a planting burst of hopeless rejected arrivals at
// release 0 whose ascending deadlines refine the horizon into ~N unit
// intervals (rejections commit nothing, so planting N boundaries costs N
// arrivals — the cheapest legal way to refine ahead of the release
// frontier, whose monotonicity forbids refining behind it); then a loader
// sweep of contested medium-lookahead jobs that commits work into the
// region the probes will scan. Measurement: per target width W, a batch
// of hopeless probes with windows spanning ~W intervals, each planting a
// fresh off-grid split (so the screen also pays its per-arrival tree
// maintenance), with a few loaders between batches to keep invalidation
// churn flowing. Probes are rejected: the oracle walks all ~W intervals
// (rebuilding each insertion curve) to learn it, the engine certifies the
// same decision from O(log n) segment-tree summaries — paid in full by
// arrivals that commit nothing.
//
// Guards (driver exits 1 on failure):
//   * determinism: on the shared small stream, the engine and the oracle
//     agree bitwise on every decision and on planned energy;
//   * screen engagement: every engine run certifies rejections;
//   * sub-linearity: the engine's per-probe cost grows <= 2.5x over every
//     64x increase in window width.
//
// The numbers establish the shape (flat engine curve vs linear oracle
// growth); determinism is what the guards verify.
//
// Env knobs (all optional):
//   PSS_WINDOW_MAX_WIDTH    largest target window width   (default 1048576)
//   PSS_WINDOW_ORACLE_MAX   oracle width cap              (default 4096)
//   PSS_WINDOW_PROBES       probes per width batch        (default 192)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "core/pd_scheduler.hpp"
#include "model/job.hpp"
#include "sim/metrics.hpp"
#include "support/reference_pd.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
using pss::core::PdScheduler;
using pss::model::Job;

const pss::model::Machine kMachine{4, 2.0};
constexpr std::uint64_t kSeed = 141;
constexpr double kLoaderTicks = 384.0;  // loader sweep span (release 0..384)

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

Job hopeless_probe(int id, double release, double deadline) {
  Job job;
  job.id = id;
  job.release = release;
  job.deadline = deadline;
  // Far beyond any capacity the window offers below s_reject, so the
  // oracle rejects after walking the window and the screen
  // certifies the same rejection from the tree bounds.
  job.work = 0.1 * (deadline - release) + 1.0;
  job.value = 1e-6;
  return job;
}

struct Phase {
  std::vector<Job> jobs;
  bool timed = false;   // aggregate per-arrival latency over this phase
  long long width = 0;  // target probe window width (timed phases)
};

// The full arrival sequence for one engine run: burst, loaders, then one
// timed probe batch per width (loader churn between batches).
std::vector<Phase> build_phases(int horizon, const std::vector<int>& widths,
                                int probes_per_width, std::uint64_t seed) {
  pss::util::Rng rng(seed);
  std::vector<Phase> phases;
  int id = 0;

  Phase burst;  // ascending integer deadlines: N unit intervals
  burst.jobs.reserve(std::size_t(horizon));
  for (int t = 1; t <= horizon; ++t)
    burst.jobs.push_back(hopeless_probe(id++, 0.0, double(t)));
  phases.push_back(std::move(burst));

  Phase loaders;  // contested medium-lookahead committed work
  for (double t = 0.0; t < kLoaderTicks; t += 0.5) {
    Job job;
    job.id = id++;
    job.release = t;
    job.deadline = t + rng.uniform(0.5, 48.0);
    job.work = rng.uniform(0.3, 2.0);
    job.value = pss::workload::energy_fair_value(job, kMachine.alpha) *
                rng.uniform(0.5, 4.0);
    loaders.jobs.push_back(job);
  }
  phases.push_back(std::move(loaders));

  const double base = kLoaderTicks;  // probe release: at the frontier
  for (const int width : widths) {
    Phase churn;  // keep tree invalidations flowing between batches
    for (int i = 0; i < 8; ++i) {
      Job job;
      job.id = id++;
      job.release = base;
      job.deadline = base + rng.uniform(0.5, 24.0);
      job.work = rng.uniform(0.3, 2.0);
      job.value = pss::workload::energy_fair_value(job, kMachine.alpha) *
                  rng.uniform(0.5, 4.0);
      churn.jobs.push_back(job);
    }
    phases.push_back(std::move(churn));

    Phase batch;
    batch.timed = true;
    batch.width = width;
    for (int i = 0; i < probes_per_width; ++i) {
      // Off-grid deadline: every probe splits one interval ahead, so the
      // screen pays its lazy tree maintenance inside the timed region.
      const double deadline =
          base + double(width) + 0.25 + 0.4 * rng.uniform(0.0, 1.0);
      batch.jobs.push_back(hopeless_probe(id++, base, deadline));
    }
    phases.push_back(std::move(batch));
  }
  return phases;
}

struct BatchResult {
  long long width = 0;
  std::size_t max_window = 0;
  pss::sim::Aggregate probe_us;
};

struct EngineRun {
  double seconds = 0.0;
  std::vector<BatchResult> batches;
  pss::core::PdCounters counters;
  double planned_energy = 0.0;
  std::vector<std::pair<bool, double>> decisions;
};

template <typename Scheduler>
EngineRun run_engine(const std::vector<Phase>& phases, Scheduler scheduler,
                     bool keep_decisions) {
  EngineRun run;
  const auto start = clock_type::now();
  for (const Phase& phase : phases) {
    BatchResult batch;
    batch.width = phase.width;
    for (const Job& job : phase.jobs) {
      if (phase.timed) {
        const auto t0 = clock_type::now();
        const auto decision = scheduler.on_arrival(job);
        const auto t1 = clock_type::now();
        batch.probe_us.add(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        if (keep_decisions)
          run.decisions.push_back({decision.accepted, decision.speed});
      } else {
        const auto decision = scheduler.on_arrival(job);
        if (keep_decisions)
          run.decisions.push_back({decision.accepted, decision.speed});
      }
    }
    if (phase.timed) {
      // Achieved width: intervals of the live partition inside the probe
      // window (the burst's max_window high-water mark covers the whole
      // horizon, so the counter cannot be used here). The snapshot is
      // O(n) but outside the timed region.
      const auto& boundaries = scheduler.partition().boundaries();
      const auto lo = std::lower_bound(boundaries.begin(), boundaries.end(),
                                       kLoaderTicks);
      const auto hi = std::lower_bound(boundaries.begin(), boundaries.end(),
                                       kLoaderTicks + double(phase.width));
      batch.max_window = std::size_t(hi - lo);
      run.batches.push_back(std::move(batch));
    }
  }
  run.seconds =
      std::chrono::duration<double>(clock_type::now() - start).count();
  if constexpr (std::is_same_v<Scheduler, PdScheduler>) {
    run.counters = scheduler.counters();
  } else {
    // The oracle keeps no counters; derive the reported ones.
    for (const auto& [id, decision] : scheduler.decisions())
      (decision.accepted ? run.counters.accepted : run.counters.rejected) += 1;
    run.counters.interval_splits = scheduler.state().interval_splits;
    run.counters.max_intervals = scheduler.state().num_intervals();
  }
  run.planned_energy = scheduler.planned_energy();
  return run;
}

void BM_ScreenedWideProbe(benchmark::State& state) {
  const auto phases = build_phases(2048, {1024}, 32, kSeed);
  for (auto _ : state) {
    const auto run = run_engine(phases, PdScheduler(kMachine), false);
    benchmark::DoNotOptimize(run.seconds);
  }
}
BENCHMARK(BM_ScreenedWideProbe)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int max_width = env_int("PSS_WINDOW_MAX_WIDTH", 1 << 20);
  const int oracle_max = env_int("PSS_WINDOW_ORACLE_MAX", 1 << 12);
  const int probes_per_width = env_int("PSS_WINDOW_PROBES", 192);

  pss::bench::print_header(
      "WINDOW-SCALE",
      "wide-window placement: oracle O(window) scan vs certified "
      "segment-tree screen");

  using pss::bench::JsonValue;
  bool determinism_match = true;
  bool prunes_ok = true;

  std::vector<int> widths;
  for (int w = 1 << 10; w <= max_width; w <<= 2) widths.push_back(w);
  if (widths.empty()) widths.push_back(max_width);
  std::vector<int> small_widths;
  for (int w : widths)
    if (w <= oracle_max) small_widths.push_back(w);

  pss::util::Table table({"engine", "width", "probe us", "p99 us",
                          "prunes", "exact", "run s"});
  table.set_precision(2);
  JsonValue runs_json = JsonValue::array();

  const auto emit_run = [&](const char* engine, const EngineRun& run) {
    for (const BatchResult& batch : run.batches) {
      table.add_row({std::string(engine), (long long)batch.max_window,
                     batch.probe_us.mean(), batch.probe_us.percentile(99),
                     run.counters.window_prunes, run.counters.window_exact,
                     run.seconds});
      runs_json.push(
          JsonValue::object()
              .set("engine", JsonValue::string(engine))
              .set("target_width", JsonValue::integer(batch.width))
              .set("max_window",
                   JsonValue::integer((long long)batch.max_window))
              .set("probes",
                   JsonValue::integer((long long)probes_per_width))
              .set("probe_us_mean", JsonValue::number(batch.probe_us.mean()))
              .set("probe_us_p99",
                   JsonValue::number(batch.probe_us.percentile(99))));
    }
  };
  const auto stamp_run = [&](const char* engine, const EngineRun& run) {
    runs_json.push(
        JsonValue::object()
            .set("engine", JsonValue::string(engine))
            .set("summary", JsonValue::boolean(true))
            .set("seconds", JsonValue::number(run.seconds))
            .set("window_prunes",
                 JsonValue::integer(run.counters.window_prunes))
            .set("window_exact",
                 JsonValue::integer(run.counters.window_exact))
            .set("accepted", JsonValue::integer(run.counters.accepted))
            .set("rejected", JsonValue::integer(run.counters.rejected))
            .set("interval_splits",
                 JsonValue::integer(run.counters.interval_splits))
            .set("max_intervals",
                 JsonValue::integer((long long)run.counters.max_intervals))
            .set("planned_energy", JsonValue::number(run.planned_energy)));
  };

  // ---- shared small stream: bitwise guard + oracle contrast -------------
  if (!small_widths.empty()) {
    const int small_horizon =
        small_widths.back() + int(kLoaderTicks) + 64;
    const auto small_phases =
        build_phases(small_horizon, small_widths, probes_per_width, kSeed);
    const EngineRun oracle = run_engine(
        small_phases, pss::reference::ReferencePd(kMachine), true);
    const EngineRun screened =
        run_engine(small_phases, PdScheduler(kMachine), true);
    if (screened.decisions != oracle.decisions ||
        screened.planned_energy != oracle.planned_energy) {
      determinism_match = false;
      std::cerr << "FATAL: the engine and the oracle disagree on the "
                   "shared stream — perf numbers void\n";
    }
    if (screened.counters.window_prunes == 0) prunes_ok = false;
    emit_run("oracle", oracle);
    stamp_run("oracle", oracle);
    emit_run("engine", screened);
    stamp_run("engine", screened);
  }

  // ---- full-scale engine sweep ------------------------------------------
  const int horizon = widths.back() + int(kLoaderTicks) + 64;
  const auto phases =
      build_phases(horizon, widths, probes_per_width, kSeed);
  const EngineRun full = run_engine(phases, PdScheduler(kMachine), false);
  if (full.counters.window_prunes == 0) prunes_ok = false;
  emit_run("engine-full", full);
  stamp_run("engine-full", full);
  pss::bench::emit(table, "window_scale.csv");
  if (!prunes_ok)
    std::cerr << "FATAL: an engine run certified no rejections — the "
                 "screen never engaged\n";

  // ---- sub-linearity guard: <= 2.5x over every 64x width increase -------
  bool sublinear = true;
  double worst_ratio = 0.0, worst_span = 0.0;
  const auto& batches = full.batches;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    for (std::size_t j = i + 1; j < batches.size(); ++j) {
      const double span = double(batches[j].max_window) /
                          std::max<double>(1.0, double(batches[i].max_window));
      if (span < 48.0 || span > 80.0) continue;  // ~64x pairs
      const double ratio = batches[j].probe_us.mean() /
                           std::max(1e-9, batches[i].probe_us.mean());
      if (ratio > worst_ratio) {
        worst_ratio = ratio;
        worst_span = span;
      }
      if (ratio > 2.5) {
        sublinear = false;
        std::cerr << "FATAL: engine per-probe cost grew " << ratio
                  << "x over a " << span << "x window-width increase\n";
      }
    }
  }
  std::cout << "expected shape: engine probe cost roughly flat from 1k "
               "to 1M-interval windows while the oracle grows linearly "
               "(capped at width " << oracle_max << ")\n";

  JsonValue root = JsonValue::object();
  root.set("bench", JsonValue::string("window_scale"))
      .set("machine", JsonValue::object()
                          .set("processors",
                               JsonValue::integer(kMachine.num_processors))
                          .set("alpha", JsonValue::number(kMachine.alpha)))
      .set("determinism_match", JsonValue::boolean(determinism_match))
      .set("screen_engaged", JsonValue::boolean(prunes_ok))
      .set("sublinear_window", JsonValue::boolean(sublinear))
      .set("engine_growth",
           JsonValue::object()
               .set("worst_64x_width_ratio", JsonValue::number(worst_span))
               .set("worst_64x_probe_us_ratio",
                    JsonValue::number(worst_ratio)))
      .set("runs", std::move(runs_json));
  pss::bench::emit_json(std::move(root), "BENCH_window.json", kSeed);

  if (!determinism_match || !sublinear || !prunes_ok) return 1;
  return pss::bench::run_benchmarks(argc, argv);
}
