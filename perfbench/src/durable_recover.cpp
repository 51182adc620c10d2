// durable-recover: write-ahead serving, a simulated crash, and recovery.
//
// Every op is appended to the op-log WAL before it is fed (the
// `pss_cli serve --wal --ckpt-dir` path). The engine runs 2 shards under a
// session-residency spill budget well below the live stream count, and a
// CheckpointCoordinator cuts checkpoints on a fixed op cadence. Serving ends
// in a simulated crash: the WAL holds a tail past the last checkpoint and no
// final checkpoint is cut. recover_engine then rebuilds a fresh engine, which
// must finish bitwise equal to the uninterrupted run. Streams are few-job, so
// PD itself is cheap here. Three threads in all: the owner and two workers.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "engine_traffic.hpp"
#include "io/checkpoint_dir.hpp"
#include "stream/recovery.hpp"

namespace perfbench {

namespace io = pss::io;

namespace {

constexpr int kStreams = 8192;
constexpr int kJobsPerStream = 6;
constexpr int kLiveStreams = 2048;
constexpr std::size_t kResidentPerShard = 128;  // spill budget
constexpr int kCheckpointsPerServe = 5;
constexpr int kRecoveries = 2;  // recover_engine repetitions per round
constexpr int kReplayStride = 8;
constexpr int kMaxTracedRounds = 1;  // bounds the in-memory span buffer
constexpr int kQueueSampleEvery = 256;

stream::EngineOptions engine_options() {
  stream::EngineOptions options;
  options.num_shards = 2;
  options.machine = model::Machine{4, 2.0};
  options.backpressure = stream::Backpressure::kBlock;
  options.spill.max_resident = kResidentPerShard;
  return options;
}

// Round `round` of a run serves its own streams.
sim::StreamWorkloadConfig traffic_config(std::uint64_t seed, int round) {
  sim::StreamWorkloadConfig config;
  config.num_streams = kStreams;
  config.jobs_per_stream = kJobsPerStream;
  config.jobs_per_tick = 2.0;
  config.min_span = 8;
  config.max_span = 24;
  config.base_seed = mix_seed(mix_seed(seed, 3), std::uint64_t(round));
  return config;
}

std::uintmax_t directory_bytes(const std::string& path) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(path))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

}  // namespace

void run_durable_recover(const Args& args, Report& report) {
  const stream::EngineOptions options = engine_options();
  const std::string dir_path = args.work_dir + "/durable-recover";
  const std::string wal_path = dir_path + "/wal.pssl";
  const std::string ckpt_path = dir_path + "/checkpoints";
  Tracer tracer(false);
  std::vector<double> setup_s;
  std::vector<double> rate_untraced;
  std::vector<double> rate_traced;
  std::vector<double> recover_s;
  ReplayStats replay;
  stream::EngineSnapshot last_snapshot;
  stream::RecoveryReport last_recovery;
  std::uintmax_t checkpoint_bytes = 0;
  std::uintmax_t wal_bytes = 0;
  long long wal_frames = 0;
  bool recoveries_exact = true;
  bool all_closed = true;
  double queue_depth_sum = 0.0;
  long long queue_samples = 0;

  const auto round = [&](int index, bool traced) {
    tracer.set_enabled(traced);
    const std::int64_t setup_start = now_ns();
    const EngineTraffic traffic = make_engine_traffic(
        traffic_config(args.seed, index), kLiveStreams, options.machine.alpha);
    const std::size_t cadence =
        traffic.ops.size() * 2 / (2 * kCheckpointsPerServe + 1);
    std::filesystem::remove_all(dir_path);
    std::filesystem::create_directories(dir_path);
    io::CheckpointDir dir(ckpt_path);
    std::vector<stream::StreamResult> served;
    {
      std::ofstream wal_os(wal_path, std::ios::binary | std::ios::trunc);
      ingest::OpLogWriter wal(wal_os);
      stream::StreamEngine engine(options);
      stream::CheckpointCoordinator coordinator(engine, wal, wal_os, dir);
      setup_s.push_back(seconds_since(setup_start));

      const std::int64_t start = now_ns();
      {
        PERFBENCH_SPAN(&tracer, "phase.serve", tracer.next_request());
        for (std::size_t i = 0; i < traffic.ops.size(); ++i) {
          const ingest::IngestOp& op = traffic.ops[i];
          {
            PERFBENCH_SPAN(&tracer, "request.op", tracer.next_request());
            {
              PERFBENCH_SPAN(&tracer, "ingest.wal_append", 0);
              wal.append(op);  // log, then feed
            }
            PERFBENCH_SPAN(&tracer,
                           op.kind == ingest::OpKind::kArrival ? "stream.feed"
                           : op.kind == ingest::OpKind::kOpen
                               ? "stream.open"
                               : "stream.close_stream",
                           0);
            apply_op(engine, op);
          }
          if (traced && i % kQueueSampleEvery == 0) {
            PERFBENCH_SPAN(&tracer, "stream.snapshot", 0);
            queue_depth_sum += double(engine.snapshot().queue_depth);
            ++queue_samples;
          }
          if ((i + 1) % cadence == 0) {
            PERFBENCH_SPAN(&tracer, "stream.checkpoint", tracer.next_request());
            coordinator.checkpoint();
          }
        }
        PERFBENCH_SPAN(&tracer, "stream.drain", 0);
        engine.drain();
      }
      (traced ? rate_traced : rate_untraced)
          .push_back(double(traffic.arrivals) / seconds_since(start));

      // The crash: every logged op reached the WAL file, and no final
      // checkpoint is cut. The served engine stands in for the
      // uninterrupted twin.
      wal_os.flush();
      wal_frames = wal.frames_written();
      last_snapshot = engine.snapshot();
      served = engine.finish();
    }
    wal_bytes = std::filesystem::file_size(wal_path);
    checkpoint_bytes = directory_bytes(ckpt_path);
    all_closed = all_closed && served.size() == std::size_t(kStreams);
    report.add_attempted(static_cast<long long>(traffic.ops.size()));
    report.add_failed(engine_failures(last_snapshot));

    for (int r = 0; r < kRecoveries; ++r) {
      stream::StreamEngine recovered(options);
      std::ifstream wal_is(wal_path, std::ios::binary);
      const std::int64_t t0 = now_ns();
      {
        PERFBENCH_SPAN(&tracer, "stream.recover_engine", tracer.next_request());
        last_recovery = stream::recover_engine(recovered, dir, wal_is);
      }
      recover_s.push_back(seconds_since(t0));
      // The recovered engine's counters repeat the served engine's (restored
      // from the checkpoints, then replayed), so only the report counts.
      report.add_attempted(last_recovery.frames_seen);
      report.add_failed(last_recovery.arrival_sheds +
                        last_recovery.torn_parts +
                        last_recovery.crc_bad_parts);
      const std::vector<stream::StreamResult> results = recovered.finish();
      recoveries_exact = recoveries_exact && same_results(results, served);
    }

    if (traced) {
      // A timed decode pass over the same WAL, from memory.
      std::ifstream file(wal_path, std::ios::binary);
      std::stringstream bytes;
      bytes << file.rdbuf();
      PERFBENCH_SPAN(&tracer, "ingest.wal_decode_pass", tracer.next_request());
      ingest::OpLogReader reader(bytes);
      ingest::IngestOp op;
      for (bool more = true; more;) {
        PERFBENCH_SPAN(&tracer, "ingest.wal_next", 0);
        more = reader.next(op);
      }
    }
    replay_sample(traffic, options, served, kReplayStride,
                  traced ? &tracer : nullptr, replay);
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
  tracer.set_enabled(false);
  std::filesystem::remove_all(dir_path);

  report.check(all_closed, "durable-recover: every stream closed");
  report.check(recoveries_exact,
               "durable-recover: recovered == uninterrupted run");
  report.check(last_recovery.frames_replayed > 0 &&
                   last_recovery.generation > 0,
               "durable-recover: checkpoint plus a WAL tail replayed");
  report.check(replay.mismatches == 0,
               "durable-recover: sampled streams == direct PdScheduler");

  print_rounds("arrivals_per_s", rate_untraced);
  print_rounds("decision_p50_us", replay.p50_us);
  print_rounds("decision_p99_us", replay.p99_us);
  print_rounds("recover_s", recover_s);
  print_rounds("setup_s", setup_s);
  report.set("arrivals_per_s", median(rate_untraced));
  report.set("decision_p50_us", median(replay.p50_us));
  report.set("decision_p99_us", median(replay.p99_us));
  report.set("recover_s", median(recover_s));
  report.set("setup_s", median(setup_s));
  report.set("peak_rss_mb", peak_rss_mb());
  std::printf("durable-recover: %d rounds x %lld arrivals (%d streams x %d "
              "jobs, %d live, %zu resident/shard), %zu recoveries, %lld "
              "decision samples\n",
              int(rate_untraced.size() + rate_traced.size()),
              static_cast<long long>(kStreams) * kJobsPerStream, kStreams,
              kJobsPerStream, kLiveStreams, kResidentPerShard,
              recover_s.size(), replay.decision_samples);

  if (!args.trace) return;
  report_engine_layers(last_snapshot, tracer, replay,
                       queue_samples ? queue_depth_sum / double(queue_samples)
                                     : 0.0,
                       report);
  report.set("ingest.wal_append_ns_p50",
             tracer.percentile_ns("ingest.wal_append", 0.5));
  report.set("ingest.wal_bytes_per_op",
             wal_frames ? double(wal_bytes) / double(wal_frames) : 0.0);
  report.set("ingest.wal_decode_ns_p50",
             tracer.percentile_ns("ingest.wal_next", 0.5));
  report.set("stream.recover_frames_replayed",
             double(last_recovery.frames_replayed));
  report.set("stream.recover_frames_skipped",
             double(last_recovery.frames_skipped));
  report.set("io.checkpoint_bytes", double(checkpoint_bytes));
  report.set("io.torn_parts", double(last_recovery.torn_parts));
  report.set("io.crc_bad_parts", double(last_recovery.crc_bad_parts));
  report.set("trace.overhead_ratio",
             tracing_overhead(rate_untraced, rate_traced));
  tracer.print_self_times();
  tracer.write(args.work_dir + "/durable-recover.trace.tsv");
}

}  // namespace perfbench
