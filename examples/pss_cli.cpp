// pss_cli — command-line driver for the library.
//
//   pss_cli gen <family> <n> <m> <alpha> <seed> <out.pssi>
//       families: uniform | poisson | tight | datacenter | adversarial
//   pss_cli run <algorithm> <in.pssi> [--gantt] [--csv out.csv]
//       algorithms: pd | oa | qoa | cll | avr
//   pss_cli validate <in.pssi>
//   pss_cli serve [--shards N] [--producers P] [--streams K] [--jobs J]
//                 [--m M] [--alpha A] [--seed S] [--reject-on-full]
//                 [--spill B] [--wal F --ckpt-dir D [--checkpoint-every K]]
//       multiplexes K independent PD job streams over N engine shards
//       (src/stream) from P producer threads and prints the aggregated
//       serving snapshot. With --wal/--ckpt-dir the owner thread serves
//       write-ahead: every op is logged before it is fed, and crash-
//       consistent per-shard checkpoints are cut every K ops (and at the
//       end) — kill it anywhere and `recover` resumes bitwise.
//   pss_cli recover --wal F --ckpt-dir D [--shards N] [--m M] [--alpha A]
//       rebuilds an engine from the newest valid checkpoints plus the WAL
//       tail and prints the recovery report and final snapshot
//   pss_cli genlog <out.psslog> [--streams K] [--jobs J] [--m M]
//                  [--alpha A] [--seed S]
//       writes the serve workload as a binary op log (src/ingest wire
//       format) instead of feeding it live
//   pss_cli replay <in.psslog> [--shards N] [--m M] [--alpha A]
//       replays a binary op log through a fresh engine; per-stream results
//       are bitwise identical to the run that produced the log
//
// Instances travel in the pss-instance v1 text format (src/io), so
// workloads generated here can be replayed against external schedulers;
// op logs travel in the framed binary format of src/ingest/op_log.hpp.
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "baselines/algorithms.hpp"
#include "baselines/avr.hpp"
#include "core/run.hpp"
#include "ingest/op_log.hpp"
#include "io/checkpoint_dir.hpp"
#include "io/instance_io.hpp"
#include "io/schedule_io.hpp"
#include "model/schedule.hpp"
#include "sim/stream_sweep.hpp"
#include "stream/engine.hpp"
#include "stream/recovery.hpp"
#include "util/fault.hpp"
#include "workload/generators.hpp"

namespace {

using namespace pss;

int usage() {
  std::cerr
      << "usage:\n"
      << "  pss_cli gen <uniform|poisson|tight|datacenter|adversarial> "
         "<n> <m> <alpha> <seed> <out.pssi>\n"
      << "  pss_cli run <pd|oa|qoa|cll|avr> <in.pssi> [--gantt] [--csv F]\n"
      << "  pss_cli validate <in.pssi>\n"
      << "  pss_cli serve [--shards N] [--producers P] [--streams K] "
         "[--jobs J] [--m M] [--alpha A] [--seed S] [--reject-on-full] "
         "[--spill B] [--wal F --ckpt-dir D [--checkpoint-every K]]\n"
      << "  pss_cli recover --wal F --ckpt-dir D [--shards N] [--m M] "
         "[--alpha A]\n"
      << "  pss_cli genlog <out.psslog> [--streams K] [--jobs J] [--m M] "
         "[--alpha A] [--seed S]\n"
      << "  pss_cli replay <in.psslog> [--shards N] [--m M] [--alpha A]\n";
  return 2;
}

int cmd_gen(int argc, char** argv) {
  if (argc != 8) return usage();
  const std::string family = argv[2];
  const int n = std::atoi(argv[3]);
  const int m = std::atoi(argv[4]);
  const double alpha = std::atof(argv[5]);
  const std::uint64_t seed = std::strtoull(argv[6], nullptr, 10);
  const model::Machine machine{m, alpha};

  model::Instance instance = [&] {
    if (family == "uniform") {
      workload::UniformConfig config;
      config.num_jobs = n;
      return workload::uniform_random(config, machine, seed);
    }
    if (family == "poisson") {
      workload::PoissonConfig config;
      config.num_jobs = n;
      return workload::poisson_heavy_tail(config, machine, seed);
    }
    if (family == "tight") {
      workload::TightConfig config;
      config.num_jobs = n;
      return workload::tight_laxity(config, machine, seed);
    }
    if (family == "datacenter") {
      workload::DatacenterConfig config;
      config.num_jobs = n;
      return workload::datacenter_day(config, machine, seed);
    }
    if (family == "adversarial")
      return workload::adversarial_theorem3(n, machine, 1e9);
    throw std::invalid_argument("unknown family: " + family);
  }();
  io::save_instance(argv[7], instance);
  std::cout << "wrote " << instance.num_jobs() << " jobs to " << argv[7]
            << "\n";
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string algo = argv[2];
  const model::Instance instance = io::load_instance(argv[3]);
  bool gantt = false;
  std::string csv_path;
  for (int i = 4; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--gantt")) gantt = true;
    else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc)
      csv_path = argv[++i];
    else
      return usage();
  }

  model::Schedule schedule(instance.machine().num_processors);
  model::CostBreakdown cost;
  if (algo == "pd") {
    auto result = core::run_pd(instance);
    schedule = std::move(result.schedule);
    cost = result.cost;
    std::cout << "certified ratio: " << result.certified_ratio
              << " (bound alpha^alpha = "
              << std::pow(instance.machine().alpha, instance.machine().alpha)
              << ")\n";
  } else if (algo == "oa" || algo == "qoa" || algo == "cll") {
    auto result = algo == "oa"    ? baselines::run_oa(instance)
                  : algo == "qoa" ? baselines::run_qoa(instance)
                                  : baselines::run_cll(instance);
    schedule = std::move(result.schedule);
    cost = result.cost;
  } else if (algo == "avr") {
    const auto partition = model::TimePartition::from_jobs(instance.jobs());
    auto result = baselines::run_avr(instance, partition);
    schedule = std::move(result.schedule);
    cost = schedule.cost(instance);
  } else {
    return usage();
  }

  const auto validation = model::validate_schedule(schedule, instance);
  std::cout << "algorithm : " << algo << "\n"
            << "energy    : " << cost.energy << "\n"
            << "lost value: " << cost.lost_value << "\n"
            << "total cost: " << cost.total() << "\n"
            << "validation: " << validation.summary() << "\n";
  if (gantt)
    io::render_gantt(std::cout, schedule, instance.horizon_start(),
                     instance.horizon_end());
  if (!csv_path.empty()) {
    io::save_schedule_csv(csv_path, schedule);
    std::cout << "segments written to " << csv_path << "\n";
  }
  return validation.ok ? 0 : 1;
}

// Write-ahead serving: log every op before feeding it, cut crash-consistent
// per-shard checkpoints on a cadence. Killing this process at any byte (the
// PSS_FAULT_* env knobs inject exactly that) leaves a WAL + checkpoint pair
// that `recover` resumes bitwise.
int serve_with_wal(const sim::StreamWorkloadConfig& config,
                   const stream::EngineOptions& options, int streams,
                   int jobs, double alpha, const std::string& wal_path,
                   const std::string& ckpt_dir, int checkpoint_every) {
  std::vector<std::vector<model::Job>> stream_jobs;
  stream_jobs.reserve(std::size_t(streams));
  for (int s = 0; s < streams; ++s)
    stream_jobs.push_back(sim::make_stream_jobs(config, s, alpha));

  std::ofstream wal_os(wal_path, std::ios::binary | std::ios::trunc);
  if (!wal_os) {
    std::cerr << "cannot open " << wal_path << "\n";
    return 1;
  }
  ingest::OpLogWriter wal(wal_os);
  io::CheckpointDir dir(ckpt_dir);
  stream::StreamEngine engine(options);
  stream::CheckpointCoordinator coordinator(engine, wal, wal_os, dir);

  long long since_checkpoint = 0;
  long long checkpoints = 0;
  std::uint64_t generation = 0;
  const auto maybe_checkpoint = [&] {
    if (checkpoint_every > 0 && ++since_checkpoint >= checkpoint_every) {
      since_checkpoint = 0;
      generation = coordinator.checkpoint();
      ++checkpoints;
    }
  };

  ingest::IngestOp op;
  for (int i = 0; i < jobs; ++i) {
    for (int s = 0; s < streams; ++s) {
      op.kind = ingest::OpKind::kArrival;
      op.stream = std::uint64_t(s);
      op.job = stream_jobs[std::size_t(s)][std::size_t(i)];
      wal.append(op);  // log THEN feed: the WAL never lags the engine
      engine.feed(stream::StreamId(s), op.job);
      maybe_checkpoint();
    }
  }
  op = ingest::IngestOp{};
  op.kind = ingest::OpKind::kClose;
  for (int s = 0; s < streams; ++s) {
    op.stream = std::uint64_t(s);
    wal.append(op);
    while (!engine.close_stream(stream::StreamId(s)))
      std::this_thread::yield();
    maybe_checkpoint();
  }
  generation = coordinator.checkpoint();
  ++checkpoints;
  wal_os.flush();

  const std::vector<stream::StreamResult> results = engine.finish();
  const stream::EngineSnapshot snap = engine.snapshot();
  double closed_energy = 0.0;
  for (const stream::StreamResult& r : results)
    closed_energy += r.planned_energy;
  std::cout << "served " << streams << " streams x " << jobs
            << " jobs write-ahead over " << options.num_shards
            << " shards\n"
            << "wal frames    : " << wal.frames_written() << " -> "
            << wal_path << "\n"
            << "checkpoints   : " << checkpoints << " (generation "
            << generation << ") -> " << ckpt_dir << "\n"
            << "accepted      : " << snap.accepted << "\n"
            << "rejected (PD) : " << snap.rejected << "\n"
            << "closed streams: " << results.size() << "\n"
            << "planned energy: " << closed_energy << "\n";
  return 0;
}

// Multi-stream serving demo: K seeded dense streams multiplexed over N
// shards, end to end through the stream engine.
int cmd_serve(int argc, char** argv) {
  std::size_t shards = 4;
  std::size_t producers = 1;
  std::size_t spill = 0;
  int streams = 256;
  int jobs = 32;
  int m = 2;
  double alpha = 2.0;
  std::uint64_t seed = 1;
  bool reject_on_full = false;
  std::string wal_path;
  std::string ckpt_dir;
  int checkpoint_every = 0;  // ops between cadenced checkpoints; 0 = final only
  for (int i = 2; i < argc; ++i) {
    const auto next_int = [&](int& out) {
      if (i + 1 >= argc) return false;
      out = std::atoi(argv[++i]);
      return out > 0;
    };
    if (!std::strcmp(argv[i], "--shards")) {
      int value = 0;
      if (!next_int(value)) return usage();
      shards = std::size_t(value);
    } else if (!std::strcmp(argv[i], "--producers")) {
      int value = 0;
      if (!next_int(value)) return usage();
      producers = std::size_t(value);
    } else if (!std::strcmp(argv[i], "--spill")) {
      int value = 0;
      if (!next_int(value)) return usage();
      spill = std::size_t(value);
    } else if (!std::strcmp(argv[i], "--streams")) {
      if (!next_int(streams)) return usage();
    } else if (!std::strcmp(argv[i], "--jobs")) {
      if (!next_int(jobs)) return usage();
    } else if (!std::strcmp(argv[i], "--m")) {
      if (!next_int(m)) return usage();
    } else if (!std::strcmp(argv[i], "--alpha") && i + 1 < argc) {
      alpha = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--reject-on-full")) {
      reject_on_full = true;
    } else if (!std::strcmp(argv[i], "--wal") && i + 1 < argc) {
      wal_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--ckpt-dir") && i + 1 < argc) {
      ckpt_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--checkpoint-every")) {
      if (!next_int(checkpoint_every)) return usage();
    } else {
      return usage();
    }
  }
  if (wal_path.empty() != ckpt_dir.empty()) {
    std::cerr << "--wal and --ckpt-dir go together\n";
    return usage();
  }

  sim::StreamWorkloadConfig config;
  config.num_streams = streams;
  config.jobs_per_stream = jobs;
  config.base_seed = seed;
  stream::EngineOptions options;
  options.num_shards = shards;
  options.max_producers = producers;
  options.spill.max_resident = spill;
  options.machine = model::Machine{m, alpha};
  options.backpressure = reject_on_full ? stream::Backpressure::kReject
                                        : stream::Backpressure::kBlock;
  if (!wal_path.empty())
    return serve_with_wal(config, options, streams, jobs, alpha, wal_path,
                          ckpt_dir, checkpoint_every);
  const sim::StreamSweepResult result = sim::sweep_streams(config, options);
  const stream::EngineSnapshot& snap = result.snapshot;

  std::cout << "serving " << streams << " streams x " << jobs
            << " jobs over " << shards << " shards, " << producers
            << " producers (m = " << m << ", alpha = " << alpha << ")\n"
            << "arrivals      : " << snap.arrivals << " ("
            << long(result.arrivals_per_sec) << "/s)\n"
            << "accepted      : " << snap.accepted << "\n"
            << "rejected (PD) : " << snap.rejected << "\n"
            << "shed on full  : " << snap.queue_rejects << "\n"
            << "closed streams: " << snap.closed_streams << "\n"
            << "planned energy: " << snap.closed_energy << "\n";
  if (spill > 0)
    std::cout << "session spills: " << snap.session_spills << " ("
              << snap.session_restores << " restores)\n";
  std::cout << "per-shard arrivals:";
  for (const stream::ShardSnapshot& shard : snap.shards)
    std::cout << ' ' << shard.arrivals;
  std::cout << "\n";
  return 0;
}

// Writes the serve workload as a framed binary op log: the same jobs the
// live sweep would feed, interleaved by release tick, one close per stream.
int cmd_genlog(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string out_path = argv[2];
  int streams = 256;
  int jobs = 32;
  int m = 2;
  double alpha = 2.0;
  std::uint64_t seed = 1;
  for (int i = 3; i < argc; ++i) {
    const auto next_int = [&](int& out) {
      if (i + 1 >= argc) return false;
      out = std::atoi(argv[++i]);
      return out > 0;
    };
    if (!std::strcmp(argv[i], "--streams")) {
      if (!next_int(streams)) return usage();
    } else if (!std::strcmp(argv[i], "--jobs")) {
      if (!next_int(jobs)) return usage();
    } else if (!std::strcmp(argv[i], "--m")) {
      if (!next_int(m)) return usage();
    } else if (!std::strcmp(argv[i], "--alpha") && i + 1 < argc) {
      alpha = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }

  sim::StreamWorkloadConfig config;
  config.num_streams = streams;
  config.jobs_per_stream = jobs;
  config.base_seed = seed;
  std::vector<std::vector<model::Job>> stream_jobs;
  stream_jobs.reserve(std::size_t(streams));
  for (int s = 0; s < streams; ++s)
    stream_jobs.push_back(sim::make_stream_jobs(config, s, alpha));

  std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  ingest::OpLogWriter writer(os);
  ingest::IngestOp op;
  for (int i = 0; i < jobs; ++i) {
    for (int s = 0; s < streams; ++s) {
      op.kind = ingest::OpKind::kArrival;
      op.stream = std::uint64_t(s);
      op.job = stream_jobs[std::size_t(s)][std::size_t(i)];
      writer.append(op);
    }
  }
  op = ingest::IngestOp{};
  op.kind = ingest::OpKind::kClose;
  for (int s = 0; s < streams; ++s) {
    op.stream = std::uint64_t(s);
    writer.append(op);
  }
  std::cout << "wrote " << writer.frames_written() << " frames ("
            << streams << " streams x " << jobs << " jobs, alpha = " << alpha
            << ") to " << out_path << "\n";
  return 0;
}

// Replays a binary op log through a fresh engine and prints the snapshot.
int cmd_replay(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string in_path = argv[2];
  std::size_t shards = 4;
  int m = 2;
  double alpha = 2.0;
  for (int i = 3; i < argc; ++i) {
    const auto next_int = [&](int& out) {
      if (i + 1 >= argc) return false;
      out = std::atoi(argv[++i]);
      return out > 0;
    };
    if (!std::strcmp(argv[i], "--shards")) {
      int value = 0;
      if (!next_int(value)) return usage();
      shards = std::size_t(value);
    } else if (!std::strcmp(argv[i], "--m")) {
      if (!next_int(m)) return usage();
    } else if (!std::strcmp(argv[i], "--alpha") && i + 1 < argc) {
      alpha = std::atof(argv[++i]);
    } else {
      return usage();
    }
  }

  std::ifstream is(in_path, std::ios::binary);
  if (!is) {
    std::cerr << "cannot open " << in_path << "\n";
    return 1;
  }
  stream::EngineOptions options;
  options.num_shards = shards;
  options.machine = model::Machine{m, alpha};
  stream::StreamEngine engine(options);
  const stream::RecoveryReport report = stream::replay_op_log(is, engine);
  const std::vector<stream::StreamResult> results = engine.finish();
  const stream::EngineSnapshot snap = engine.snapshot();

  double closed_energy = 0.0;
  for (const stream::StreamResult& r : results) closed_energy += r.planned_energy;
  std::cout << "replayed " << report.frames_seen << " frames over " << shards
            << " shards (m = " << m << ", alpha = " << alpha << ")\n"
            << "applied       : " << report.frames_replayed << "\n"
            << "arrival sheds : " << report.arrival_sheds << "\n"
            << "ckpt marks    : " << report.marks_seen << "\n"
            << "accepted      : " << snap.accepted << "\n"
            << "rejected (PD) : " << snap.rejected << "\n"
            << "closed streams: " << results.size() << "\n"
            << "planned energy: " << closed_energy << "\n";
  return 0;
}

// Rebuilds an engine from the newest valid checkpoints + the WAL tail.
int cmd_recover(int argc, char** argv) {
  std::string wal_path;
  std::string ckpt_dir;
  std::size_t shards = 4;
  int m = 2;
  double alpha = 2.0;
  for (int i = 2; i < argc; ++i) {
    const auto next_int = [&](int& out) {
      if (i + 1 >= argc) return false;
      out = std::atoi(argv[++i]);
      return out > 0;
    };
    if (!std::strcmp(argv[i], "--wal") && i + 1 < argc) {
      wal_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--ckpt-dir") && i + 1 < argc) {
      ckpt_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--shards")) {
      int value = 0;
      if (!next_int(value)) return usage();
      shards = std::size_t(value);
    } else if (!std::strcmp(argv[i], "--m")) {
      if (!next_int(m)) return usage();
    } else if (!std::strcmp(argv[i], "--alpha") && i + 1 < argc) {
      alpha = std::atof(argv[++i]);
    } else {
      return usage();
    }
  }
  if (wal_path.empty() || ckpt_dir.empty()) return usage();

  std::ifstream wal_is(wal_path, std::ios::binary);
  if (!wal_is) {
    std::cerr << "cannot open " << wal_path << "\n";
    return 1;
  }
  stream::EngineOptions options;
  options.num_shards = shards;
  options.machine = model::Machine{m, alpha};
  stream::StreamEngine engine(options);
  const io::CheckpointDir dir(ckpt_dir);
  const stream::RecoveryReport report =
      stream::recover_engine(engine, dir, wal_is);

  const std::vector<stream::StreamResult> results = engine.finish();
  const stream::EngineSnapshot snap = engine.snapshot();
  double closed_energy = 0.0;
  for (const stream::StreamResult& r : results)
    closed_energy += r.planned_energy;
  std::cout << "recovered from generation " << report.generation << " ("
            << report.shards_cold << " cold shards) + " << wal_path << "\n"
            << "wal frames    : " << report.frames_seen << " ("
            << report.frames_replayed << " replayed, "
            << report.frames_skipped << " in checkpoint, "
            << report.marks_seen << " marks)\n"
            << "wal tail      : "
            << (report.wal_tail_truncated ? "truncated (crash mid-append)"
                                          : "clean")
            << "\n"
            << "parts skipped : " << report.torn_parts << " torn, "
            << report.crc_bad_parts << " crc-bad\n"
            << "accepted      : " << snap.accepted << "\n"
            << "rejected (PD) : " << snap.rejected << "\n"
            << "closed streams: " << results.size() << "\n"
            << "planned energy: " << closed_energy << "\n";
  return 0;
}

int cmd_validate(int argc, char** argv) {
  if (argc != 3) return usage();
  const model::Instance instance = io::load_instance(argv[2]);
  std::cout << "instance ok: " << instance.num_jobs() << " jobs, m = "
            << instance.machine().num_processors
            << ", alpha = " << instance.machine().alpha << ", horizon ["
            << instance.horizon_start() << ", " << instance.horizon_end()
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Out-of-process crash drills: PSS_FAULT_SITE/AFTER/KIND/TIMES arm the
  // injector before any subcommand runs (default kind is a hard _Exit(42),
  // the honest simulation of `kill -9` at the site).
  pss::util::FaultInjector::instance().arm_from_env();
  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "validate") return cmd_validate(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "recover") return cmd_recover(argc, argv);
    if (cmd == "genlog") return cmd_genlog(argc, argv);
    if (cmd == "replay") return cmd_replay(argc, argv);
    return usage();
  } catch (const pss::util::InjectedCrash& crash) {
    std::cerr << "injected crash at " << crash.site << "\n";
    return 42;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
