// serve-dense: bulk serving through the stream engine in a closed loop.
//
// The owner thread is the only producer (Backpressure::kBlock) and feeds
// many short-lived, contested streams over 2 shards (m = 4, alpha = 2),
// opening and closing every one. Three threads in all: the producer and
// two shard workers.
#include <memory>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "engine_traffic.hpp"

namespace perfbench {

namespace {

constexpr int kStreams = 4096;       // streams per round
constexpr int kJobsPerStream = 24;
constexpr int kLiveStreams = 512;    // streams open at once
constexpr int kReplayStride = 8;     // every 8th stream is replayed directly
constexpr int kRestoresPerRound = 6;  // restore-probe repetitions
constexpr int kQueueSampleEvery = 256;
constexpr int kMaxTracedRounds = 1;  // bounds the in-memory span buffer

stream::EngineOptions engine_options() {
  stream::EngineOptions options;
  options.num_shards = 2;
  options.machine = model::Machine{4, 2.0};
  options.backpressure = stream::Backpressure::kBlock;
  return options;
}

// Round `round` of a run serves its own streams.
sim::StreamWorkloadConfig traffic_config(std::uint64_t seed, int round) {
  sim::StreamWorkloadConfig config;
  config.num_streams = kStreams;
  config.jobs_per_stream = kJobsPerStream;
  config.jobs_per_tick = 0.5;
  config.min_span = 8;
  config.max_span = 24;
  config.base_seed = mix_seed(mix_seed(seed, 1), std::uint64_t(round));
  return config;
}

}  // namespace

void run_serve_dense(const Args& args, Report& report) {
  const stream::EngineOptions options = engine_options();
  Tracer tracer(false);

  // Restore probe image: an engine checkpoint cut halfway through round 0's
  // traffic. Every round restores it into fresh engines (timed: time to
  // restore service), so the probe samples the whole run.
  const EngineTraffic probe_traffic = make_engine_traffic(
      traffic_config(args.seed, 0), kLiveStreams, options.machine.alpha);
  const std::size_t half = probe_traffic.ops.size() / 2;
  std::string image;
  {
    stream::StreamEngine engine(options);
    for (std::size_t i = 0; i < half; ++i)
      apply_op(engine, probe_traffic.ops[i]);
    std::ostringstream os(std::ios::binary);
    engine.checkpoint(os);
    image = std::move(os).str();
    report.add_attempted(static_cast<long long>(half));
    report.add_failed(engine_failures(engine.snapshot()));
  }
  std::vector<double> restore_s;
  const auto restore = [&](stream::StreamEngine& engine) {
    std::istringstream is(image, std::ios::binary);
    const std::int64_t start = now_ns();
    {
      PERFBENCH_SPAN(&tracer, "stream.restore", tracer.next_request());
      engine.restore(is);
      engine.drain();
    }
    restore_s.push_back(seconds_since(start));
  };

  std::vector<double> setup_s;
  std::vector<double> rate_untraced;
  std::vector<double> rate_traced;
  ReplayStats replay;
  std::vector<stream::StreamResult> first_results;  // round 0
  bool all_closed = true;
  stream::EngineSnapshot last_snapshot;
  double queue_depth_sum = 0.0;
  long long queue_samples = 0;

  const auto round = [&](int index, bool traced) {
    tracer.set_enabled(traced);
    const std::int64_t setup_start = now_ns();
    const EngineTraffic traffic = make_engine_traffic(
        traffic_config(args.seed, index), kLiveStreams, options.machine.alpha);
    auto engine = std::make_unique<stream::StreamEngine>(options);
    setup_s.push_back(seconds_since(setup_start));

    const std::int64_t start = now_ns();
    {
      PERFBENCH_SPAN(&tracer, "phase.serve", tracer.next_request());
      for (std::size_t i = 0; i < traffic.ops.size(); ++i) {
        const ingest::IngestOp& op = traffic.ops[i];
        const char* name = op.kind == ingest::OpKind::kArrival ? "stream.feed"
                           : op.kind == ingest::OpKind::kOpen
                               ? "stream.open"
                               : "stream.close_stream";
        {
          PERFBENCH_SPAN(&tracer, name, tracer.next_request());
          apply_op(*engine, op);
        }
        if (traced && i % kQueueSampleEvery == 0) {
          PERFBENCH_SPAN(&tracer, "stream.snapshot", 0);
          queue_depth_sum += double(engine->snapshot().queue_depth);
          ++queue_samples;
        }
      }
      PERFBENCH_SPAN(&tracer, "stream.drain", 0);
      engine->drain();
    }
    (traced ? rate_traced : rate_untraced)
        .push_back(double(traffic.arrivals) / seconds_since(start));

    last_snapshot = engine->snapshot();
    std::vector<stream::StreamResult> results = engine->finish();
    engine.reset();  // one engine alive at a time
    all_closed = all_closed && results.size() == std::size_t(kStreams);
    report.add_attempted(static_cast<long long>(traffic.ops.size()));
    report.add_failed(engine_failures(last_snapshot));
    replay_sample(traffic, options, results, kReplayStride,
                  traced ? &tracer : nullptr, replay);
    if (index == 0 && !traced) first_results = std::move(results);
    for (int r = 0; r < kRestoresPerRound; ++r) {
      stream::StreamEngine fresh(options);
      restore(fresh);
    }
  };

  const std::int64_t run_start = now_ns();
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  repeat_rounds(untraced_budget, 3, 1000, [&](int r) { round(r, false); });
  if (args.trace) {
    // Traced rounds replay the inputs of the first untraced rounds, so the
    // tracing overhead compares like with like; untraced rounds fill the
    // rest of the run.
    repeat_rounds(0.0, 1, kMaxTracedRounds, [&](int r) { round(r, true); });
    repeat_rounds(args.seconds - seconds_since(run_start), 0, 1000,
                  [&](int r) { round(r, false); });
  }

  // The restored engine serves the rest of round 0 and must finish like the
  // uninterrupted round 0.
  std::vector<stream::StreamResult> restored_results;
  {
    stream::StreamEngine engine(options);
    restore(engine);
    const long long carried = engine_failures(engine.snapshot());
    for (std::size_t i = half; i < probe_traffic.ops.size(); ++i)
      apply_op(engine, probe_traffic.ops[i]);
    restored_results = engine.finish();
    report.add_attempted(
        static_cast<long long>(probe_traffic.ops.size() - half));
    report.add_failed(engine_failures(engine.snapshot()) - carried);
  }

  report.check(replay.mismatches == 0,
               "serve-dense: sampled streams == direct PdScheduler");
  report.check(all_closed, "serve-dense: every stream closed with a result");
  report.check(same_results(restored_results, first_results),
               "serve-dense: restored engine == uninterrupted run");

  print_rounds("arrivals_per_s", rate_untraced);
  print_rounds("decision_p50_us", replay.p50_us);
  print_rounds("decision_p99_us", replay.p99_us);
  print_rounds("recover_s", restore_s);
  print_rounds("setup_s", setup_s);
  report.set("arrivals_per_s", median(rate_untraced));
  report.set("decision_p50_us", median(replay.p50_us));
  report.set("decision_p99_us", median(replay.p99_us));
  report.set("recover_s", median(restore_s));
  report.set("setup_s", median(setup_s));
  report.set("peak_rss_mb", peak_rss_mb());
  std::printf("serve-dense: %zu rounds x %d arrivals (%d streams x %d jobs, "
              "%d live), %lld decision samples, %zu restores\n",
              rate_untraced.size() + rate_traced.size(),
              kStreams * kJobsPerStream, kStreams, kJobsPerStream,
              kLiveStreams, replay.decision_samples, restore_s.size());

  if (!args.trace) return;
  report_engine_layers(last_snapshot, tracer, replay,
                       queue_samples ? queue_depth_sum / double(queue_samples)
                                     : 0.0,
                       report);
  report.set("io.checkpoint_bytes", double(image.size()));
  report.set("trace.overhead_ratio",
             tracing_overhead(rate_untraced, rate_traced));
  tracer.print_self_times();
  tracer.write(args.work_dir + "/serve-dense.trace.tsv");
}

}  // namespace perfbench
