// wide-lookahead: one long-running PdScheduler session driven directly on
// one thread.
//
// Interactive jobs with short windows mix with batch jobs whose windows span
// hundreds to thousands of live intervals; values are scaled so the accept
// share stays contested. Heartbeats advance_to(t, /*compact=*/true) keep
// memory flat. Set-up brings the session to its steady live-interval count;
// the timed part then runs the same session for the rest of the run, in
// windows of consecutive arrivals, and reports medians over windows.
#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "core/pd_scheduler.hpp"
#include "core/run.hpp"
#include "engine_traffic.hpp"
#include "io/state_io.hpp"
#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace perfbench {

namespace io = pss::io;
namespace util = pss::util;
namespace workload = pss::workload;

namespace {

const model::Machine kMachine{4, 2.0};
constexpr int kWarmupArrivals = 7000;  // set-up: reach the steady state
constexpr int kSetups = 3;             // set-up repetitions (median)
constexpr int kWindowArrivals = 5000;  // arrivals per timed window
constexpr int kMinWindows = 5;
constexpr int kLoadsPerWindow = 3;     // restore-probe repetitions
constexpr int kHeartbeatEvery = 8;     // arrivals per advance_to heartbeat
constexpr int kCheckedPrefix = 600;    // jobs checked against core::run_pd

// The session's arrival stream: a pure function of the seed.
class JobSource {
 public:
  explicit JobSource(std::uint64_t seed) : rng_(mix_seed(seed, 2)) {}

  model::Job next() {
    model::Job job;
    job.id = next_id_++;
    t_ += rng_.uniform(0.2, 0.6);
    job.release = t_;
    const bool batch = rng_.uniform(0.0, 1.0) < 0.3;
    job.deadline = t_ + (batch ? rng_.uniform(500.0, 2500.0)
                               : rng_.uniform(0.5, 8.0));
    job.work = batch ? rng_.uniform(5.0, 40.0) : rng_.uniform(0.3, 3.0);
    job.value = workload::energy_fair_value(job, kMachine.alpha) *
                rng_.uniform(0.8, 5.0);
    return job;
  }

 private:
  util::Rng rng_;
  double t_ = 0.0;
  model::JobId next_id_ = 0;
};

core::PdOptions session_options() {
  core::PdOptions options;
  options.record_decisions = false;  // long-running serving posture
  return options;
}

// Counts over the timed arrivals only; high-water marks from the end state.
core::PdCounters timed_counters(const core::PdCounters& end,
                                const core::PdCounters& warm) {
  core::PdCounters c = end;
  for (const core::PdCounterField& f : core::kPdCounterFields)
    if (f.kind == core::PdCounterField::Kind::kAdd)
      c.*(f.count) -= warm.*(f.count);
  return c;
}

}  // namespace

void run_wide_lookahead(const Args& args, Report& report) {
  // Set-up, repeated for a steady set-up time; the last session is served.
  std::vector<double> setup_s;
  std::unique_ptr<core::PdScheduler> session;
  std::unique_ptr<JobSource> source;
  std::vector<core::ArrivalDecision> prefix_decisions;
  long long arrivals = 0;
  for (int s = 0; s < kSetups; ++s) {
    const std::int64_t start = now_ns();
    source = std::make_unique<JobSource>(args.seed);
    session = std::make_unique<core::PdScheduler>(kMachine, session_options());
    prefix_decisions.clear();
    for (arrivals = 0; arrivals < kWarmupArrivals;) {
      const model::Job job = source->next();
      const core::ArrivalDecision d = session->on_arrival(job);
      if (arrivals < kCheckedPrefix) prefix_decisions.push_back(d);
      if (++arrivals % kHeartbeatEvery == 0)
        session->advance_to(job.release, /*compact=*/true);
    }
    setup_s.push_back(seconds_since(start));
  }
  const core::PdCounters warm = session->counters();

  Tracer tracer(false);
  std::vector<double> rate_untraced;
  std::vector<double> rate_traced;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> load_s;
  std::vector<double> blob_bytes;
  std::vector<double> window_ns;
  long long decision_samples = 0;
  bool restores_exact = true;

  // One window: kWindowArrivals timed arrivals, then a restore probe outside
  // the timed part (checkpoint the session and time restoring it into a
  // fresh scheduler: time to restore service of this session).
  const auto window = [&](bool traced) {
    tracer.set_enabled(traced);
    window_ns.clear();
    const std::int64_t start = now_ns();
    {
      PERFBENCH_SPAN(&tracer, "phase.serve", tracer.next_request());
      for (int k = 0; k < kWindowArrivals; ++k) {
        const model::Job job = source->next();
        {
          PERFBENCH_SPAN(&tracer, "core.on_arrival", std::uint64_t(job.id));
          const std::int64_t t0 = now_ns();
          session->on_arrival(job);
          window_ns.push_back(double(now_ns() - t0));
        }
        if (++arrivals % kHeartbeatEvery == 0) {
          PERFBENCH_SPAN(&tracer, "core.advance_to", 0);
          session->advance_to(job.release, /*compact=*/true);
        }
      }
    }
    (traced ? rate_traced : rate_untraced)
        .push_back(double(kWindowArrivals) / seconds_since(start));
    decision_samples += static_cast<long long>(window_ns.size());
    if (!traced) {
      p50_us.push_back(percentile(window_ns, 0.50) * 1e-3);
      p99_us.push_back(percentile(window_ns, 0.99) * 1e-3);
    }

    std::ostringstream os(std::ios::binary);
    {
      PERFBENCH_SPAN(&tracer, "io.save_scheduler", tracer.next_request());
      io::save_scheduler(os, *session);
    }
    const std::string blob = std::move(os).str();
    blob_bytes.push_back(double(blob.size()));
    for (int r = 0; r < kLoadsPerWindow; ++r) {
      core::PdScheduler restored(kMachine, session_options());
      std::istringstream is(blob, std::ios::binary);
      const std::int64_t t0 = now_ns();
      {
        PERFBENCH_SPAN(&tracer, "io.load_scheduler", tracer.next_request());
        io::load_scheduler(is, restored);
      }
      load_s.push_back(seconds_since(t0));
      restores_exact =
          restores_exact &&
          restored.planned_energy() == session->planned_energy() &&
          restored.live_intervals() == session->live_intervals();
    }
  };

  const double budget = args.seconds - median(setup_s) * kSetups;
  const double untraced_budget = args.trace ? budget / 2 : budget;
  repeat_rounds(untraced_budget, kMinWindows, 1 << 20,
                [&](int) { window(false); });
  if (args.trace)
    repeat_rounds(budget / 2, kMinWindows, 1 << 20, [&](int) { window(true); });
  tracer.set_enabled(false);
  report.add_attempted(kWarmupArrivals * (kSetups - 1) + arrivals +
                       arrivals / kHeartbeatEvery);

  // Output checks against the one-shot runner on the stream's prefix: the
  // schedule is feasible, the Theorem 3 certificate holds, and the
  // compacted long-running session decided every prefix job bitwise alike.
  JobSource prefix_source(args.seed);
  std::vector<model::Job> prefix;
  for (int i = 0; i < kCheckedPrefix; ++i)
    prefix.push_back(prefix_source.next());
  const model::Instance instance = model::make_instance(kMachine, prefix);
  const core::PdRunResult run = core::run_pd(instance);
  const model::ValidationResult valid =
      model::validate_schedule(run.schedule, instance);
  const double bound = std::pow(kMachine.alpha, kMachine.alpha);
  bool same_decisions = prefix_decisions.size() == std::size_t(kCheckedPrefix);
  for (std::size_t i = 0; same_decisions && i < prefix_decisions.size(); ++i)
    same_decisions = prefix_decisions[i].accepted == run.accepted[i] &&
                     prefix_decisions[i].lambda == run.lambda[i] &&
                     prefix_decisions[i].speed == run.speed[i];
  report.check(valid.ok, "wide-lookahead: validate_schedule on run_pd prefix");
  report.check(run.certified_ratio > 0.0 &&
                   run.certified_ratio <= bound * (1.0 + 1e-9),
               "wide-lookahead: cost / g(lambda) <= alpha^alpha");
  report.check(same_decisions,
               "wide-lookahead: compacted session == run_pd decisions");
  report.check(restores_exact, "wide-lookahead: restored session is exact");
  std::printf("wide-lookahead: certified ratio %.6f (bound %.6f) on %d jobs\n",
              run.certified_ratio, bound, kCheckedPrefix);

  print_rounds("arrivals_per_s", rate_untraced);
  print_rounds("decision_p50_us", p50_us);
  print_rounds("decision_p99_us", p99_us);
  print_rounds("recover_s", load_s);
  print_rounds("setup_s", setup_s);
  report.set("arrivals_per_s", median(rate_untraced));
  report.set("decision_p50_us", median(p50_us));
  report.set("decision_p99_us", median(p99_us));
  report.set("recover_s", median(load_s));
  report.set("setup_s", median(setup_s));
  report.set("peak_rss_mb", peak_rss_mb());
  std::printf("wide-lookahead: %zu windows x %d arrivals after %d warm-up "
              "arrivals (%lld decision samples), %zu restores, %d set-ups\n",
              rate_untraced.size() + rate_traced.size(), kWindowArrivals,
              kWarmupArrivals, decision_samples, load_s.size(), kSetups);

  if (!args.trace) return;
  report_pd_counters(timed_counters(session->counters(), warm), report);
  report.set("core.on_arrival_ns_p50",
             tracer.percentile_ns("core.on_arrival", 0.50));
  report.set("core.on_arrival_ns_p99",
             tracer.percentile_ns("core.on_arrival", 0.99));
  report.set("core.advance_ns_p50",
             tracer.percentile_ns("core.advance_to", 0.50));
  report.set("model.live_intervals_end", double(session->live_intervals()));
  report.set("model.handle_space_end", double(session->handle_space()));
  report.set("io.save_scheduler_us_p50",
             tracer.percentile_ns("io.save_scheduler", 0.5) * 1e-3);
  report.set("io.load_scheduler_us_p50",
             tracer.percentile_ns("io.load_scheduler", 0.5) * 1e-3);
  report.set("io.session_blob_bytes_p50", median(blob_bytes));
  report.set("io.checkpoint_bytes", median(blob_bytes));
  report.set("trace.overhead_ratio",
             median(rate_untraced) / median(rate_traced));
  tracer.print_self_times();
  tracer.write(args.work_dir + "/wide-lookahead.trace.tsv");
}

}  // namespace perfbench
