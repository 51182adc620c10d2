#include "engine_traffic.hpp"

#include <algorithm>
#include <sstream>

#include "io/state_io.hpp"

namespace perfbench {

namespace io = pss::io;

namespace {

// Decision times are summarized per chunk of consecutive calls, so a burst
// of interference on the host moves a few chunk percentiles, not the median
// over chunks. 2048 calls leave 20 beyond each chunk's p99.
constexpr std::size_t kChunkCalls = 2048;

}  // namespace

EngineTraffic make_engine_traffic(const sim::StreamWorkloadConfig& config,
                                  int live_streams, double alpha) {
  EngineTraffic traffic;
  traffic.config = config;
  struct Slot {
    int stream = -1;
    std::size_t next_job = 0;
    std::vector<model::Job> jobs;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(live_streams));
  int next_stream = 0;
  traffic.ops.reserve(std::size_t(config.num_streams) *
                      std::size_t(config.jobs_per_stream + 2));
  ingest::IngestOp op;
  // Slot k opens its first stream at pass k * jobs / live, so the open
  // streams are spread evenly over their lifetimes instead of moving in
  // lockstep generations.
  for (long long pass = 0, pending = config.num_streams; pending > 0; ++pass) {
    for (std::size_t k = 0; k < slots.size(); ++k) {
      Slot& slot = slots[k];
      if (slot.stream < 0) {
        if (next_stream >= config.num_streams ||
            pass * live_streams <
                static_cast<long long>(k) * config.jobs_per_stream)
          continue;
        slot.stream = next_stream++;
        slot.next_job = 0;
        slot.jobs = sim::make_stream_jobs(config, slot.stream, alpha);
        op = ingest::IngestOp{};
        op.kind = ingest::OpKind::kOpen;
        op.stream = std::uint64_t(slot.stream);
        traffic.ops.push_back(op);
      }
      op = ingest::IngestOp{};
      op.stream = std::uint64_t(slot.stream);
      op.kind = ingest::OpKind::kArrival;
      op.job = slot.jobs[slot.next_job++];
      traffic.ops.push_back(op);
      ++traffic.arrivals;
      if (slot.next_job == slot.jobs.size()) {
        op.kind = ingest::OpKind::kClose;
        op.job = model::Job{};
        traffic.ops.push_back(op);
        slot.stream = -1;
        --pending;
      }
    }
  }
  return traffic;
}

void apply_op(stream::StreamEngine& engine, const ingest::IngestOp& op) {
  const auto id = stream::StreamId(op.stream);
  switch (op.kind) {
    case ingest::OpKind::kOpen:
      engine.open(id);
      break;
    case ingest::OpKind::kArrival:
      engine.feed(id, op.job);
      break;
    case ingest::OpKind::kAdvance:
      engine.advance(id, op.time);
      break;
    case ingest::OpKind::kClose:
      engine.close_stream(id);
      break;
    case ingest::OpKind::kCheckpointMark:
      break;
  }
}

long long engine_failures(const stream::EngineSnapshot& snap) {
  return snap.op_errors + snap.queue_rejects + snap.admission_rejects +
         snap.quarantined_rejects + snap.spill_errors +
         snap.checkpoint_refusals;
}

bool same_results(const std::vector<stream::StreamResult>& a,
                  const std::vector<stream::StreamResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].planned_energy != b[i].planned_energy ||
        a[i].counters.accepted != b[i].counters.accepted ||
        a[i].counters.rejected != b[i].counters.rejected)
      return false;
  return true;
}

void replay_sample(const EngineTraffic& traffic,
                   const stream::EngineOptions& options,
                   const std::vector<stream::StreamResult>& results,
                   int stride, Tracer* tracer, ReplayStats& stats) {
  PERFBENCH_SPAN(tracer, "phase.replay", tracer ? tracer->next_request() : 0);
  core::PdOptions pd = options.scheduler;
  pd.record_decisions = options.record_decisions;  // as SessionTable does
  core::PdScheduler scheduler(options.machine, pd);
  core::PdScheduler restored(options.machine, pd);
  std::vector<double> arrival_ns;
  for (int s = 0; s < traffic.config.num_streams; s += stride) {
    scheduler.reset();
    for (const model::Job& job :
         sim::make_stream_jobs(traffic.config, s, options.machine.alpha)) {
      PERFBENCH_SPAN(tracer, "core.on_arrival",
                     tracer ? tracer->next_request() : 0);
      const std::int64_t start = now_ns();
      scheduler.on_arrival(job);
      arrival_ns.push_back(double(now_ns() - start));
    }
    stats.live_intervals_max =
        std::max(stats.live_intervals_max, scheduler.live_intervals());
    stats.handle_space_max =
        std::max(stats.handle_space_max, scheduler.handle_space());

    // The spill path: serialize the end state, restore it into a pooled
    // scheduler, and check the restore is exact.
    std::ostringstream blob(std::ios::binary);
    {
      PERFBENCH_SPAN(tracer, "io.save_scheduler", 0);
      io::save_scheduler(blob, scheduler);
    }
    const std::string bytes = std::move(blob).str();
    stats.blob_bytes.push_back(double(bytes.size()));
    std::istringstream in(bytes, std::ios::binary);
    {
      PERFBENCH_SPAN(tracer, "io.load_scheduler", 0);
      io::load_scheduler(in, restored);
    }

    ++stats.streams;
    const auto found = std::lower_bound(
        results.begin(), results.end(), stream::StreamId(s),
        [](const stream::StreamResult& r, stream::StreamId id) {
          return r.id < id;
        });
    const bool same =
        found != results.end() && found->id == stream::StreamId(s) &&
        found->planned_energy == scheduler.planned_energy() &&
        found->counters.accepted == scheduler.counters().accepted &&
        found->counters.rejected == scheduler.counters().rejected &&
        restored.planned_energy() == scheduler.planned_energy();
    if (!same) ++stats.mismatches;
  }
  stats.decision_samples += static_cast<long long>(arrival_ns.size());
  for (std::size_t begin = 0; begin + kChunkCalls <= arrival_ns.size();
       begin += kChunkCalls) {
    std::vector<double> chunk(arrival_ns.begin() + long(begin),
                              arrival_ns.begin() + long(begin + kChunkCalls));
    stats.p50_us.push_back(percentile(chunk, 0.50) * 1e-3);
    stats.p99_us.push_back(percentile(chunk, 0.99) * 1e-3);
  }
}

void report_pd_counters(const core::PdCounters& c, Report& report) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double arrivals = double(c.arrivals);
  const double screened = double(c.window_prunes + c.window_exact);
  report.set("core.accept_share", ratio(double(c.accepted), arrivals));
  report.set("core.lazy_fast_path_share",
             ratio(double(c.lazy_fast_path), arrivals));
  report.set("chen.curve_rebuilds_per_arrival",
             ratio(double(c.curve_cache_rebuilds), arrivals));
  report.set("chen.curve_cache_hit_ratio",
             ratio(double(c.curve_cache_hits),
                   double(c.curve_cache_hits + c.curve_cache_rebuilds)));
  report.set("convex.screened_share", ratio(screened, arrivals));
  report.set("convex.screen_prune_ratio",
             ratio(double(c.window_prunes), screened));
  report.set("model.splits_per_arrival",
             ratio(double(c.interval_splits), arrivals));
  report.set("model.max_intervals", double(c.max_intervals));
  report.set("model.max_window", double(c.max_window));
  report.set("model.compacted_intervals", double(c.compacted_intervals));
}

void report_engine_layers(const stream::EngineSnapshot& snap,
                          const Tracer& tracer, const ReplayStats& replay,
                          double queue_depth_mean, Report& report) {
  report.set("stream.feed_ns_p50", tracer.percentile_ns("stream.feed", 0.50));
  report.set("stream.feed_ns_p99", tracer.percentile_ns("stream.feed", 0.99));
  report.set("stream.drain_tail_s",
             tracer.percentile_ns("stream.drain", 0.5) * 1e-9);
  report.set("stream.checkpoint_ms_p50",
             tracer.percentile_ns("stream.checkpoint", 0.5) * 1e-6);
  report.set("stream.checkpoint_ms_max",
             tracer.percentile_ns("stream.checkpoint", 1.0) * 1e-6);
  report.set("stream.queue_depth_mean", queue_depth_mean);
  report.set("stream.full_waits", double(snap.full_waits));
  report.set("stream.session_spills", double(snap.session_spills));
  report.set("stream.session_restores", double(snap.session_restores));
  long long processed = 0, batches = 0, max_arrivals = 0;
  for (const stream::ShardSnapshot& shard : snap.shards) {
    processed += shard.processed;
    batches += shard.batches;
    max_arrivals = std::max(max_arrivals, shard.arrivals);
  }
  report.set("stream.ops_per_batch",
             batches ? double(processed) / double(batches) : 0.0);
  report.set("stream.shard_skew",
             snap.arrivals ? double(max_arrivals) * double(snap.shards.size()) /
                                 double(snap.arrivals)
                           : 0.0);
  report_pd_counters(snap.counters, report);
  report.set("core.on_arrival_ns_p50",
             tracer.percentile_ns("core.on_arrival", 0.50));
  report.set("core.on_arrival_ns_p99",
             tracer.percentile_ns("core.on_arrival", 0.99));
  report.set("model.live_intervals_end", double(replay.live_intervals_max));
  report.set("model.handle_space_end", double(replay.handle_space_max));
  report.set("io.save_scheduler_us_p50",
             tracer.percentile_ns("io.save_scheduler", 0.5) * 1e-3);
  report.set("io.load_scheduler_us_p50",
             tracer.percentile_ns("io.load_scheduler", 0.5) * 1e-3);
  report.set("io.session_blob_bytes_p50", median(replay.blob_bytes));
}

}  // namespace perfbench
