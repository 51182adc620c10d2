#include "stream/engine.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>

#include <string>

#include "io/state_io.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace pss::stream {

namespace {
// Max ops a worker drains per wake: the batching grain, amortizing one
// stats lock and one publish over up to this many applied ops.
constexpr std::size_t kDrainBatch = 128;

// Balances the in_flight_ registration on every exit path out of enqueue()
// (including the PSS_REQUIRE throw on a blocking push into a paused engine).
struct InFlightGuard {
  std::atomic<long long>& counter;
  ~InFlightGuard() { counter.fetch_sub(1, std::memory_order_seq_cst); }
};
}  // namespace

StreamEngine::StreamEngine(EngineOptions options)
    : options_(options),
      router_(options.num_shards),
      paused_(options.start_paused) {
  PSS_REQUIRE(options_.num_shards >= 1, "need at least one shard");
  PSS_REQUIRE(options_.max_producers >= 1, "need at least one producer slot");
  slot_used_.assign(options_.max_producers, false);
  slot_used_[0] = true;  // the owner thread
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i)
    shards_.push_back(std::make_unique<Shard>(options_, i));
  // A ring never holds more than its rounded capacity, so a larger
  // threshold could never fire: refuse it rather than silently never shed.
  PSS_REQUIRE(options_.admission_depth <= shards_[0]->queues[0]->capacity(),
              "admission_depth exceeds the ring capacity and can never shed");
  for (auto& shard : shards_)
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
}

StreamEngine::~StreamEngine() { stop(); }

// ------------------------------------------------------------- producers

StreamEngine::Producer& StreamEngine::Producer::operator=(
    Producer&& other) noexcept {
  if (this != &other) {
    release();
    engine_ = other.engine_;
    slot_ = other.slot_;
    other.engine_ = nullptr;
    other.slot_ = 0;
  }
  return *this;
}

void StreamEngine::Producer::release() {
  if (engine_ != nullptr) {
    engine_->release_producer(slot_);
    engine_ = nullptr;
    slot_ = 0;
  }
}

bool StreamEngine::Producer::open(StreamId id) {
  PSS_REQUIRE(engine_ != nullptr, "empty producer handle");
  return engine_->enqueue(slot_, engine_->router_.shard_of(id),
                          ShardOp{ShardOp::Kind::kOpen, id, 0.0, {}});
}

bool StreamEngine::Producer::feed(StreamId id, const model::Job& job) {
  PSS_REQUIRE(engine_ != nullptr, "empty producer handle");
  return engine_->enqueue(slot_, engine_->router_.shard_of(id),
                          ShardOp{ShardOp::Kind::kArrival, id, 0.0, job});
}

bool StreamEngine::Producer::advance(StreamId id, double t) {
  PSS_REQUIRE(engine_ != nullptr, "empty producer handle");
  return engine_->enqueue(slot_, engine_->router_.shard_of(id),
                          ShardOp{ShardOp::Kind::kAdvance, id, t, {}});
}

bool StreamEngine::Producer::close_stream(StreamId id) {
  PSS_REQUIRE(engine_ != nullptr, "empty producer handle");
  return engine_->enqueue(slot_, engine_->router_.shard_of(id),
                          ShardOp{ShardOp::Kind::kClose, id, 0.0, {}});
}

StreamEngine::Producer StreamEngine::producer() {
  std::lock_guard lock(producer_mutex_);
  PSS_REQUIRE(accepting_.load(std::memory_order_seq_cst),
              "engine already finished");
  for (std::size_t slot = 1; slot < options_.max_producers; ++slot) {
    if (!slot_used_[slot]) {
      slot_used_[slot] = true;
      ++active_producers_;
      return Producer(this, slot);
    }
  }
  PSS_REQUIRE(false, "all producer slots in use (raise max_producers)");
  return {};  // unreachable
}

void StreamEngine::release_producer(std::size_t slot) {
  std::lock_guard lock(producer_mutex_);
  PSS_CHECK(slot > 0 && slot < slot_used_.size() && slot_used_[slot],
            "releasing an unclaimed producer slot");
  slot_used_[slot] = false;
  --active_producers_;
}

std::size_t StreamEngine::active_producers() const {
  std::lock_guard lock(producer_mutex_);
  return active_producers_;
}

// ------------------------------------------------------------- ingestion

void StreamEngine::wake(Shard& shard) {
  // Dekker-style handshake with the worker's sleep path: the ring push
  // (seq_cst fence below) and the worker's sleeping-flag store are ordered
  // so that either we observe sleeping == true and notify, or the worker's
  // post-flag emptiness recheck observes our push — never neither. The
  // argument is per-ring, so it survives multiple producers: each pushes to
  // its own ring before fencing, and the worker rechecks every ring.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.sleeping.load(std::memory_order_relaxed)) {
    std::lock_guard lock(shard.wake_mutex);
    shard.wake_cv.notify_one();
  }
}

bool StreamEngine::enqueue(std::size_t slot, std::size_t shard_index,
                           ShardOp op) {
  Shard& shard = *shards_[shard_index];
  // Shutdown gate: register as in flight *before* reading accepting_, the
  // mirror order of stop()'s write-then-wait — so either stop() sees this
  // op in flight and waits for the push, or this op sees the closed gate
  // and becomes a counted late reject. Never a push into a dying ring.
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  InFlightGuard guard{in_flight_};
  if (!accepting_.load(std::memory_order_seq_cst)) {
    shard.late_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // A quarantined shard has no worker: refuse-and-count instead of filling
  // a ring nobody will ever drain (or blocking on it forever).
  if (shard.quarantined.load(std::memory_order_acquire)) {
    shard.quarantined_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  SpscQueue<ShardOp>& queue = *shard.queues[slot];
  // Admission: shed-before-enqueue, arrivals only (a shed open/advance/
  // close would corrupt the stream's lifecycle rather than its load).
  if (op.kind == ShardOp::Kind::kArrival && options_.admission_depth != 0 &&
      queue.size() >= options_.admission_depth) {
    shard.admission_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!queue.try_push(op)) {
    if (options_.backpressure == Backpressure::kReject) {
      shard.queue_rejects.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    PSS_REQUIRE(!paused_.load(std::memory_order_relaxed),
                "blocking push on a paused engine would deadlock");
    shard.full_waits.fetch_add(1, std::memory_order_relaxed);
    // Timed retry instead of a wake-perfect protocol: this is the
    // backpressure slow path, and a bounded poll makes a missed producer
    // wake impossible by construction.
    while (!queue.try_push(op)) {
      // The worker may die while we block; its quarantine flips before the
      // notify, so this bounded poll always observes it and escapes.
      if (shard.quarantined.load(std::memory_order_acquire)) {
        shard.quarantined_rejects.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      std::unique_lock lock(shard.stats_mutex);
      shard.drained_cv.wait_for(lock, std::chrono::microseconds(100));
    }
  }
  shard.enqueued.fetch_add(1, std::memory_order_relaxed);
  wake(shard);
  return true;
}

bool StreamEngine::open(StreamId id) {
  return enqueue(0, router_.shard_of(id),
                 ShardOp{ShardOp::Kind::kOpen, id, 0.0, {}});
}

bool StreamEngine::feed(StreamId id, const model::Job& job) {
  return enqueue(0, router_.shard_of(id),
                 ShardOp{ShardOp::Kind::kArrival, id, 0.0, job});
}

bool StreamEngine::advance(StreamId id, double t) {
  return enqueue(0, router_.shard_of(id),
                 ShardOp{ShardOp::Kind::kAdvance, id, t, {}});
}

bool StreamEngine::close_stream(StreamId id) {
  return enqueue(0, router_.shard_of(id),
                 ShardOp{ShardOp::Kind::kClose, id, 0.0, {}});
}

void StreamEngine::resume() {
  paused_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->wake_mutex);
    shard->wake_cv.notify_one();
  }
}

void StreamEngine::drain_shard(Shard& shard) {
  const long long target = shard.enqueued.load(std::memory_order_relaxed);
  std::unique_lock lock(shard.stats_mutex);
  // A quarantined shard will never reach the target; waiting on a dead
  // worker must not wedge the caller (the stranded ops are part of the
  // shard's blast radius, reported via degraded_sessions).
  shard.drained_cv.wait(lock, [&] {
    return shard.published.processed >= target ||
           shard.quarantined.load(std::memory_order_acquire);
  });
}

void StreamEngine::drain() {
  PSS_REQUIRE(!paused_.load(std::memory_order_relaxed),
              "draining a paused engine would deadlock");
  for (auto& shard : shards_) drain_shard(*shard);
}

void StreamEngine::stop() {
  if (finished_.load(std::memory_order_acquire)) return;
  // Quiesce producers first: close the gate, then wait out every enqueue
  // already past it. Workers keep draining, so a producer blocked on a full
  // ring makes progress and the wait terminates.
  accepting_.store(false, std::memory_order_seq_cst);
  while (in_flight_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->wake_mutex);
    shard->wake_cv.notify_one();
  }
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  finished_.store(true, std::memory_order_release);
}

// ------------------------------------------------------ checkpoint/restore

namespace {
// "PSSSHRD6" as a little-endian u64 — version byte last. One image format
// serves both entry points: checkpoint_shard writes one shard image, and
// checkpoint() writes every shard's image in shard order. (Images of the
// earlier formats — one shared header ahead of the shard states,
// "PSSSHRD4" session blobs that still carry a lazy water-level section, or
// "PSSSHRD5" session blobs that still carry an accepted-id section — are
// refused as bad magic.)
constexpr std::uint64_t kShardMagic = 0x3644524853535350ull;
}  // namespace

bool StreamEngine::quiesce_producers() {
  // Bounded grace instead of an immediate refusal: a checkpoint cadence
  // usually lands while short-lived producer handles wind down, and waiting
  // out that window beats failing the cadence. The deadline keeps a leaked
  // handle from wedging the serving loop — on timeout the checkpoint is
  // refused and counted, and the caller retries at the next cadence.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.quiesce_timeout_ms);
  while (active_producers() != 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      checkpoint_refusals_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

void StreamEngine::write_shard_image(std::ostream& os, Shard& shard,
                                     std::uint64_t wal_mark) const {
  ShardSnapshot p;
  {
    std::lock_guard lock(shard.stats_mutex);
    p = shard.published;
  }
  io::write_u64(os, kShardMagic);
  io::write_u64(os, wal_mark);
  io::write_u64(os, shard.index);
  // Config block: what restore compatibility is checked against.
  io::write_u64(os, options_.num_shards);
  io::write_i64(os, options_.machine.num_processors);
  io::write_f64(os, options_.machine.alpha);
  io::write_bool(os, options_.scheduler.delta.has_value());
  io::write_f64(os, options_.scheduler.delta.value_or(0.0));
  io::write_bool(os, options_.record_decisions);
  // Tallies, then the session table.
  io::write_i64(os, shard.enqueued.load(std::memory_order_relaxed));
  io::write_i64(os, shard.admission_rejects.load(std::memory_order_relaxed));
  io::write_i64(os, shard.queue_rejects.load(std::memory_order_relaxed));
  io::write_i64(os, shard.full_waits.load(std::memory_order_relaxed));
  io::write_i64(os, shard.late_rejects.load(std::memory_order_relaxed));
  io::write_i64(os, p.processed);
  io::write_i64(os, p.batches);
  io::write_i64(os, p.op_errors);
  io::write_i64(os, p.arrivals);
  io::write_i64(os, p.accepted);
  io::write_i64(os, p.rejected);
  io::write_f64(os, p.decision_energy);
  io::write_i64(os, p.closed_streams);
  io::write_f64(os, p.closed_energy);
  io::save_counters(os, p.counters);
  shard.sessions.checkpoint(os);
}

std::uint64_t StreamEngine::read_shard_image(std::istream& is, Shard& shard) {
  PSS_REQUIRE(io::read_u64(is) == kShardMagic,
              "not a PSS shard checkpoint (bad magic)");
  const std::uint64_t wal_mark = io::read_u64(is);
  PSS_REQUIRE(io::read_u64(is) == shard.index,
              "shard checkpoint for a different shard");
  PSS_REQUIRE(io::read_u64(is) == options_.num_shards,
              "checkpoint shard count mismatch");
  PSS_REQUIRE(io::read_i64(is) == options_.machine.num_processors &&
                  io::read_f64(is) == options_.machine.alpha,
              "checkpoint machine mismatch");
  const bool has_delta = io::read_bool(is);
  const double delta = io::read_f64(is);
  PSS_REQUIRE(has_delta == options_.scheduler.delta.has_value() &&
                  delta == options_.scheduler.delta.value_or(0.0),
              "checkpoint delta mismatch");
  PSS_REQUIRE(io::read_bool(is) == options_.record_decisions,
              "checkpoint record_decisions mismatch");

  const long long enqueued = io::read_i64(is);
  const long long admission_rejects = io::read_i64(is);
  const long long queue_rejects = io::read_i64(is);
  const long long full_waits = io::read_i64(is);
  const long long late_rejects = io::read_i64(is);
  ShardSnapshot p;
  p.processed = io::read_i64(is);
  // Images are only cut drained, and drain() waits for processed to reach
  // enqueued: a restored gap would wedge the next drain() forever.
  PSS_REQUIRE(enqueued == p.processed,
              "corrupt checkpoint: enqueued/processed tally mismatch");
  p.batches = io::read_i64(is);
  p.op_errors = io::read_i64(is);
  p.arrivals = io::read_i64(is);
  p.accepted = io::read_i64(is);
  p.rejected = io::read_i64(is);
  p.decision_energy = io::read_f64(is);
  p.closed_streams = io::read_i64(is);
  p.closed_energy = io::read_f64(is);
  io::load_counters(is, p.counters);
  // The worker only touches its session table when a ring hands it an
  // op; this shard has accepted no traffic, so the table is ours to
  // fill. The ring's release/acquire pair on the next enqueue publishes
  // these writes to the worker. (The restoring table re-applies its own
  // residency budget, so a spill-less checkpoint restores into a
  // budgeted engine and vice versa.)
  shard.sessions.restore(is);
  p.open_streams = shard.sessions.num_open();
  p.resident_sessions = shard.sessions.num_resident();
  p.spilled_sessions = shard.sessions.num_spilled();
  p.session_spills = shard.sessions.num_spills();
  p.session_restores = shard.sessions.num_spill_restores();
  p.spill_errors = shard.sessions.num_spill_errors();
  {
    std::lock_guard lock(shard.stats_mutex);
    shard.published = p;
  }
  shard.admission_rejects.store(admission_rejects, std::memory_order_relaxed);
  shard.queue_rejects.store(queue_rejects, std::memory_order_relaxed);
  shard.full_waits.store(full_waits, std::memory_order_relaxed);
  shard.late_rejects.store(late_rejects, std::memory_order_relaxed);
  shard.enqueued.store(enqueued, std::memory_order_relaxed);
  return wal_mark;
}

void StreamEngine::checkpoint(std::ostream& os, std::uint64_t wal_mark) {
  PSS_REQUIRE(!finished_.load(std::memory_order_acquire),
              "engine already finished");
  for (auto& shard : shards_)
    PSS_REQUIRE(!shard->quarantined.load(std::memory_order_acquire),
                "cannot checkpoint a quarantined shard (checkpoint_shard "
                "the healthy ones)");
  PSS_REQUIRE(quiesce_producers(),
              "extra producers still registered after the quiesce timeout");
  // After drain() every worker has applied all ops it will ever see until
  // the next enqueue, and a worker facing empty rings never touches its
  // session table — so the tables are quiescent for the reads below. The
  // stats-mutex handshake inside drain() ordered the workers' session
  // writes before them. (No extra producers exist — just checked — so the
  // owner thread is the only possible enqueuer, and it is here.)
  drain();
  for (auto& shard : shards_) write_shard_image(os, *shard, wal_mark);
}

std::uint64_t StreamEngine::restore(std::istream& is) {
  PSS_REQUIRE(!finished_.load(std::memory_order_acquire),
              "engine already finished");
  for (auto& shard : shards_) {
    PSS_REQUIRE(shard->enqueued.load(std::memory_order_relaxed) == 0,
                "restore target engine must be fresh");
  }
  std::uint64_t wal_mark = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t mark = read_shard_image(is, *shards_[i]);
    PSS_REQUIRE(i == 0 || mark == wal_mark,
                "checkpoint shards carry different wal_marks");
    wal_mark = mark;
  }
  return wal_mark;
}

void StreamEngine::checkpoint_shard(std::size_t shard_index, std::ostream& os,
                                    std::uint64_t wal_mark) {
  PSS_REQUIRE(!finished_.load(std::memory_order_acquire),
              "engine already finished");
  PSS_REQUIRE(shard_index < shards_.size(), "shard index out of range");
  Shard& shard = *shards_[shard_index];
  PSS_REQUIRE(!shard.quarantined.load(std::memory_order_acquire),
              "cannot checkpoint a quarantined shard");
  PSS_REQUIRE(quiesce_producers(),
              "extra producers still registered after the quiesce timeout");
  PSS_REQUIRE(!paused_.load(std::memory_order_relaxed),
              "draining a paused engine would deadlock");
  drain_shard(shard);
  write_shard_image(os, shard, wal_mark);
}

std::uint64_t StreamEngine::restore_shard(std::size_t shard_index,
                                          std::istream& is) {
  PSS_REQUIRE(!finished_.load(std::memory_order_acquire),
              "engine already finished");
  PSS_REQUIRE(shard_index < shards_.size(), "shard index out of range");
  Shard& shard = *shards_[shard_index];
  PSS_REQUIRE(shard.enqueued.load(std::memory_order_relaxed) == 0,
              "restore target shard must be fresh");
  return read_shard_image(is, shard);
}

std::size_t StreamEngine::num_quarantined_shards() const {
  std::size_t n = 0;
  for (const auto& shard : shards_)
    if (shard->quarantined.load(std::memory_order_acquire)) ++n;
  return n;
}

std::vector<StreamResult> StreamEngine::finish() {
  if (!finished_.load(std::memory_order_acquire)) {
    if (paused_.load(std::memory_order_relaxed)) resume();
    // stop() closes the accepting gate and waits out in-flight enqueues
    // before setting stopping_, and the workers drain their rings to empty
    // before exiting — so every accepted op is applied, and every op that
    // raced the shutdown is a counted late reject.
    stop();
  }
  std::vector<StreamResult> results;
  for (auto& shard : shards_) {
    auto completed = shard->sessions.take_completed();
    results.insert(results.end(), std::make_move_iterator(completed.begin()),
                   std::make_move_iterator(completed.end()));
  }
  std::sort(results.begin(), results.end(),
            [](const StreamResult& a, const StreamResult& b) {
              return a.id < b.id;
            });
  return results;
}

EngineSnapshot StreamEngine::snapshot() const {
  EngineSnapshot snap;
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardSnapshot s;
    {
      std::lock_guard lock(shard->stats_mutex);
      s = shard->published;
    }
    s.queue_depth = shard->queue_depth();
    s.enqueued = shard->enqueued.load(std::memory_order_relaxed);
    s.admission_rejects =
        shard->admission_rejects.load(std::memory_order_relaxed);
    s.queue_rejects = shard->queue_rejects.load(std::memory_order_relaxed);
    s.full_waits = shard->full_waits.load(std::memory_order_relaxed);
    s.late_rejects = shard->late_rejects.load(std::memory_order_relaxed);
    s.quarantined_rejects =
        shard->quarantined_rejects.load(std::memory_order_relaxed);
    // A late reject IS a contained op error — misuse of the shutdown
    // contract, surfaced in the same ledger clients already watch.
    s.op_errors += s.late_rejects;
    snap.arrivals += s.arrivals;
    snap.accepted += s.accepted;
    snap.rejected += s.rejected;
    snap.admission_rejects += s.admission_rejects;
    snap.queue_rejects += s.queue_rejects;
    snap.full_waits += s.full_waits;
    snap.late_rejects += s.late_rejects;
    snap.op_errors += s.op_errors;
    snap.queue_depth += s.queue_depth;
    snap.open_streams += s.open_streams;
    snap.resident_sessions += s.resident_sessions;
    snap.spilled_sessions += s.spilled_sessions;
    snap.session_spills += s.session_spills;
    snap.session_restores += s.session_restores;
    snap.spill_errors += s.spill_errors;
    snap.closed_streams += s.closed_streams;
    if (s.degraded) {
      ++snap.degraded_shards;
      snap.degraded_sessions += s.degraded_sessions;
    }
    snap.quarantined_rejects += s.quarantined_rejects;
    snap.decision_energy += s.decision_energy;
    snap.closed_energy += s.closed_energy;
    snap.counters += s.counters;
    snap.shards.push_back(std::move(s));
  }
  snap.checkpoint_refusals =
      checkpoint_refusals_.load(std::memory_order_relaxed);
  return snap;
}

void StreamEngine::worker_loop(Shard& shard) {
  std::vector<ShardOp> batch;
  batch.reserve(kDrainBatch);
  const std::size_t num_queues = shard.queues.size();
  // Per-shard fault site: drills can kill shard 2's worker specifically
  // and watch shards 0,1,3.. keep serving.
  const std::string fault_site = "shard.worker." + std::to_string(shard.index);
  // Combining drain: sweep all producer rings into one batch, starting at a
  // rotating ring so no producer slot is structurally favored.
  std::size_t next_queue = 0;
  for (;;) {
    if (paused_.load(std::memory_order_acquire) &&
        !stopping_.load(std::memory_order_acquire)) {
      std::unique_lock lock(shard.wake_mutex);
      shard.wake_cv.wait(lock, [&] {
        return !paused_.load(std::memory_order_relaxed) ||
               stopping_.load(std::memory_order_relaxed);
      });
    }

    batch.clear();
    for (std::size_t k = 0;
         k < num_queues && batch.size() < kDrainBatch; ++k) {
      shard.queues[(next_queue + k) % num_queues]->pop_batch(
          batch, kDrainBatch - batch.size());
    }
    next_queue = (next_queue + 1) % num_queues;
    if (batch.empty()) {
      // On stop, exit only once every ring is fully drained: every op
      // accepted before stop() is applied (correct shutdown). An empty
      // batch means the sweep above found all rings empty.
      if (stopping_.load(std::memory_order_acquire)) return;
      // Sleep handshake, consumer half (see wake()): flag, fence, recheck.
      shard.sleeping.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (shard.queues_empty() &&
          !stopping_.load(std::memory_order_relaxed) &&
          !paused_.load(std::memory_order_relaxed)) {
        std::unique_lock lock(shard.wake_mutex);
        shard.wake_cv.wait(lock, [&] {
          return !shard.queues_empty() ||
                 stopping_.load(std::memory_order_relaxed) ||
                 paused_.load(std::memory_order_relaxed);
        });
      }
      shard.sleeping.store(false, std::memory_order_relaxed);
      continue;
    }

    // Apply the batch without holding any lock; fold tallies locally.
    long long arrivals = 0, accepted = 0, rejected = 0;
    long long closed = 0, op_errors = 0;
    double decision_energy = 0.0, closed_energy = 0.0;
    core::PdCounters closed_counters;
    try {
      for (ShardOp& op : batch) {
        // A precondition violation (a client feeding a malformed job or
        // breaking release order) poisons that op only: the engine counts
        // it and keeps serving every other stream.
        try {
          // Inside the per-op containment on purpose: an injected *error*
          // (std::exception) is shed like any recoverable op failure; an
          // injected *crash* (not a std::exception) escapes to the
          // quarantine handler below, like a real worker death would.
          PSS_FAULT_POINT(fault_site.c_str());
          switch (op.kind) {
            case ShardOp::Kind::kOpen:
              shard.sessions.open(op.stream);
              break;
            case ShardOp::Kind::kArrival: {
              const core::ArrivalDecision decision =
                  shard.sessions.feed(op.stream, op.job);
              ++arrivals;
              if (decision.accepted) {
                ++accepted;
                decision_energy += decision.planned_energy;
              } else {
                ++rejected;
              }
              break;
            }
            case ShardOp::Kind::kAdvance:
              // The table contains malformed advances itself (returns
              // false instead of throwing), so a bad clock never reaches
              // the batch-level catch — but it still counts as an op error.
              if (!shard.sessions.advance(op.stream, op.time)) ++op_errors;
              break;
            case ShardOp::Kind::kClose: {
              const StreamResult* result = shard.sessions.close(op.stream);
              if (result != nullptr) {
                ++closed;
                closed_energy += result->planned_energy;
                closed_counters += result->counters;
              }
              break;
            }
          }
        } catch (const std::exception&) {
          ++op_errors;
        }
      }
    } catch (...) {
      // Anything beyond a std::exception is a worker death, not an op
      // failure: quarantine the shard. The flag flips before the notify,
      // so blocked producers and drain() waiters observe it and escape;
      // enqueue refuses new traffic from here on. Sessions stay intact in
      // the (now worker-less) table for finish() to report and for
      // degraded accounting — recovery rebuilds the shard from its last
      // checkpoint + WAL tail in a fresh engine.
      shard.quarantined.store(true, std::memory_order_seq_cst);
      {
        std::lock_guard lock(shard.stats_mutex);
        shard.published.degraded = true;
        shard.published.degraded_sessions = shard.sessions.num_open();
      }
      shard.drained_cv.notify_all();
      return;
    }

    // One stats lock per batch — the amortization the ring exists for.
    {
      std::lock_guard lock(shard.stats_mutex);
      ShardSnapshot& p = shard.published;
      p.processed += static_cast<long long>(batch.size());
      p.batches += 1;
      p.op_errors += op_errors;
      p.arrivals += arrivals;
      p.accepted += accepted;
      p.rejected += rejected;
      p.decision_energy += decision_energy;
      p.closed_streams += closed;
      p.closed_energy += closed_energy;
      p.counters += closed_counters;
      p.open_streams = shard.sessions.num_open();
      p.resident_sessions = shard.sessions.num_resident();
      p.spilled_sessions = shard.sessions.num_spilled();
      p.session_spills = shard.sessions.num_spills();
      p.session_restores = shard.sessions.num_spill_restores();
      p.spill_errors = shard.sessions.num_spill_errors();
    }
    shard.drained_cv.notify_all();  // drain() waiters and blocked producers
  }
}

}  // namespace pss::stream
