// Sharded multi-stream serving engine.
//
// The paper's online scheduler is a sequential per-instance algorithm, but
// independent instances share nothing — so a serving layer can multiplex
// millions of concurrent job streams by hashing each stream to one of N
// worker shards and running a pool of PdScheduler sessions per shard.
//
//   producer 0 (owner) ──route──> [ring 0] ─┐
//   producer 1         ──route──> [ring 1] ─┼─batch──> shard worker
//   producer P-1       ──route──> [ring P-1]┘          SessionTable
//                                 (bounded SPSC each)  (PdScheduler pool)
//
// Ingestion is MPSC by composition: each shard owns one bounded SPSC ring
// *per producer slot*, and the shard worker drains them with a combining,
// rotating round-robin sweep. Slot 0 belongs to the engine's owning thread
// (the classic open/feed/advance API is the 1-producer special case); extra
// slots are claimed with producer() and fed through the returned handle from
// any thread, one thread per handle. Per-stream FIFO order is preserved
// because each ring is FIFO — callers keep each stream on one producer
// (feed a stream from two slots and its op order is whatever the drain
// interleaves). With that discipline, per-stream decisions are bitwise
// identical for any shard count AND any producer count: a stream's ops
// still reach one worker, in feed order, into a scheduler that sees only
// that stream.
//
// Ahead of the rings sits one admission check: with
// EngineOptions::admission_depth set, an arrival whose target ring already
// holds that many ops is shed before it is enqueued and counted per shard
// in `admission_rejects` — distinct from `queue_rejects`, the post-check
// sheds of Backpressure::kReject on a full ring. Control ops always pass.
// The check reads only the ring depth, never a clock.
//
// Under an EngineOptions::spill budget each shard's SessionTable keeps at
// most max_resident sessions live and spills the coldest to an in-memory
// blob through the checkpoint path (decision-identical; see
// session_table.hpp). Nothing here touches disk: the op log and the
// checkpoint parts (stream/recovery) are the serving stack's only files.
//
// Shutdown contract: finish() (and the destructor) first flips an atomic
// accepting gate and waits out in-flight enqueues, so a producer that races
// the shutdown gets its op refused-and-counted (`late_rejects`, surfaced in
// snapshot op_errors) instead of racing a dying ring. Producer handles must
// be released before checkpoint() (the drain only quiesces what the owner
// thread can see) — enforced with a bounded quiesce wait and then a
// counted std::invalid_argument refusal, not UB.
//
// Failure model: a non-recoverable fault inside a shard worker (anything
// that escapes the per-op std::exception containment — an injected kill in
// a drill, a real corruption in production) quarantines THAT shard: the
// worker publishes a degraded snapshot (stranded session count) and exits;
// enqueue refuses the shard's traffic with a counted quarantined_reject;
// drain() and finish() do not block on it. The other shards keep serving.
// Per-shard checkpoints (checkpoint_shard / restore_shard) plus the WAL
// (stream/recovery) rebuild the lost shard without touching healthy ones.
//
// Checkpoint format: one image format, the shard image ("PSSSHRD6": magic,
// wal_mark, shard index, config block, tallies, session table). An engine
// image (checkpoint / restore) is every shard's image in shard order — the
// same bytes a CheckpointCoordinator generation writes as its parts.
//
// Threading contract: engine-level open/feed/advance/close_stream/drain/
// checkpoint/restore/finish are owner-thread calls (slot 0); each Producer
// handle serves exactly one additional thread. snapshot() may be called
// concurrently from any thread — it reads per-shard published stats under
// per-shard locks, never pausing workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "model/instance.hpp"
#include "model/job.hpp"
#include "stream/router.hpp"
#include "stream/session_table.hpp"
#include "stream/spsc_queue.hpp"

namespace pss::stream {

/// What to do when a shard's ingestion ring is full.
enum class Backpressure {
  kBlock,   // producer thread waits for the worker to free space
  kReject,  // drop the op, count it in queue_rejects
};

struct EngineOptions {
  std::size_t num_shards = 1;
  /// Producer slots, i.e. SPSC rings per shard. Slot 0 is the engine's
  /// owning thread; slots 1..max_producers-1 are claimed via producer().
  std::size_t max_producers = 1;
  /// Per-ring capacity (rounded up to a power of two).
  std::size_t queue_capacity = 1024;
  Backpressure backpressure = Backpressure::kBlock;
  /// Capture per-arrival decisions into StreamResult (memory-heavy; meant
  /// for tests and differential checks, not bulk serving).
  bool record_decisions = false;
  /// Construct with workers parked until resume() — lets tests fill a ring
  /// deterministically before anything drains.
  bool start_paused = false;
  /// Shed-before-enqueue admission: an arrival whose target ring already
  /// holds at least this many ops is shed (admission_rejects). 0 = never
  /// shed. Control ops (open/advance/close) always pass. Must not exceed
  /// the rounded ring capacity, which would make it unreachable.
  std::size_t admission_depth = 0;
  /// How long checkpoint() waits for extra producer handles to be released
  /// before refusing (counted in EngineSnapshot::checkpoint_refusals). A
  /// serving loop can then retry at the next cadence instead of crashing.
  long long quiesce_timeout_ms = 200;
  /// Per-shard session residency budget; max_resident == 0 disables
  /// spilling.
  SpillOptions spill{};
  /// Machine every session runs on.
  model::Machine machine{1, 2.0};
  /// PD configuration for every session.
  core::PdOptions scheduler{};
};

/// Per-shard slice of a snapshot. "Live" fields cover all traffic so far;
/// `counters` / `closed_energy` aggregate the sessions already closed.
struct ShardSnapshot {
  std::size_t queue_depth = 0;   // ops sitting in this shard's rings now
  long long enqueued = 0;        // ops accepted into the rings
  long long processed = 0;       // ops applied by the worker
  long long batches = 0;         // worker wakes that drained work
  long long admission_rejects = 0;  // arrivals shed by admission_depth
  long long queue_rejects = 0;   // ops shed on a full ring (kReject)
  long long full_waits = 0;      // producer stalls on a full ring (kBlock)
  long long late_rejects = 0;    // ops refused after finish() began
  long long op_errors = 0;       // ops rejected by a session precondition
                                 // (late_rejects fold in at snapshot time)
  long long arrivals = 0;        // live, all sessions
  long long accepted = 0;
  long long rejected = 0;
  double decision_energy = 0.0;  // live sum of accepted planned energies
  std::size_t open_streams = 0;  // resident + spilled
  std::size_t resident_sessions = 0;
  std::size_t spilled_sessions = 0;
  long long session_spills = 0;    // evictions to a spilled blob, ever
  long long session_restores = 0;  // spilled-blob restores, ever
  long long spill_errors = 0;      // spilled blobs that failed to load
  long long closed_streams = 0;
  double closed_energy = 0.0;           // exact, closed sessions
  core::PdCounters counters;            // aggregated over closed sessions
  // Degradation: a quarantined shard stopped serving (its worker died on a
  // non-recoverable fault); its sessions are reported here so an operator
  // can size the blast radius. Other shards keep serving.
  bool degraded = false;
  std::size_t degraded_sessions = 0;   // sessions stranded in the shard
  long long quarantined_rejects = 0;   // ops refused because of quarantine
};

/// Aggregated engine state, assembled shard by shard without stopping the
/// world (each shard is locked briefly and independently).
struct EngineSnapshot {
  long long arrivals = 0;
  long long accepted = 0;
  long long rejected = 0;
  long long admission_rejects = 0;
  long long queue_rejects = 0;
  long long full_waits = 0;
  long long late_rejects = 0;
  long long op_errors = 0;
  std::size_t queue_depth = 0;
  std::size_t open_streams = 0;
  std::size_t resident_sessions = 0;
  std::size_t spilled_sessions = 0;
  long long session_spills = 0;
  long long session_restores = 0;
  long long spill_errors = 0;
  long long closed_streams = 0;
  std::size_t degraded_shards = 0;
  std::size_t degraded_sessions = 0;
  long long quarantined_rejects = 0;
  long long checkpoint_refusals = 0;  // quiesce timeouts, see checkpoint()
  double decision_energy = 0.0;
  double closed_energy = 0.0;
  core::PdCounters counters;
  std::vector<ShardSnapshot> shards;
};

class StreamEngine {
 public:
  /// A claimed producer slot: the MPSC write handle. Move-only; usable from
  /// exactly one thread at a time; must not outlive the engine. Destroying
  /// (or release()-ing) the handle frees the slot for the next claimant.
  class Producer {
   public:
    Producer() = default;
    Producer(Producer&& other) noexcept { *this = std::move(other); }
    Producer& operator=(Producer&& other) noexcept;
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;
    ~Producer() { release(); }

    bool open(StreamId id);
    bool feed(StreamId id, const model::Job& job);
    bool advance(StreamId id, double t);
    bool close_stream(StreamId id);

    [[nodiscard]] bool valid() const { return engine_ != nullptr; }
    [[nodiscard]] std::size_t slot() const { return slot_; }
    /// Unregisters the slot (idempotent). After this the handle is empty.
    void release();

   private:
    friend class StreamEngine;
    Producer(StreamEngine* engine, std::size_t slot)
        : engine_(engine), slot_(slot) {}

    StreamEngine* engine_ = nullptr;
    std::size_t slot_ = 0;
  };

  explicit StreamEngine(EngineOptions options);
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] const StreamRouter& router() const { return router_; }

  /// Claims a free producer slot (throws std::invalid_argument when all
  /// max_producers - 1 extra slots are taken or the engine finished).
  [[nodiscard]] Producer producer();
  /// Extra producer handles currently registered (slot 0 not counted).
  [[nodiscard]] std::size_t active_producers() const;

  /// Opens a session before traffic arrives (feed auto-opens otherwise).
  bool open(StreamId id);
  /// Routes one arrival to its stream's shard. Returns false iff the op
  /// was shed — by admission_depth, by Backpressure::kReject on a full
  /// ring, or because the engine is finishing.
  bool feed(StreamId id, const model::Job& job);
  /// Advances the stream's horizon to time t.
  bool advance(StreamId id, double t);
  /// Ends the stream: its result is finalized by the shard worker and its
  /// scheduler recycled. Feeding the same id later starts a fresh session.
  bool close_stream(StreamId id);

  /// Releases workers constructed with start_paused.
  void resume();

  /// Blocks until every op enqueued so far has been applied.
  void drain();

  /// Drains every in-flight op, then serializes the engine's full state —
  /// open sessions (spilled blobs included, byte-identical to a spill-free
  /// run), pending results, published tallies — as every shard's
  /// checkpoint_shard image in shard order (src/io/state_io.hpp wire
  /// format). The engine keeps serving afterwards. Owner-thread call.
  /// Extra Producer handles get a bounded grace period
  /// (EngineOptions::quiesce_timeout_ms) to be released; if any survive
  /// it, the checkpoint is *refused* (std::invalid_argument, counted in
  /// checkpoint_refusals) — the drain can only quiesce rings no one is
  /// filling. Refused with the same error if any shard is
  /// quarantined (checkpoint_shard the healthy ones instead).
  ///
  /// `wal_mark` stamps every shard image with the op-log checkpoint-mark
  /// count it corresponds to (see stream/recovery); 0 = no WAL.
  void checkpoint(std::ostream& os, std::uint64_t wal_mark = 0);

  /// Restores a checkpoint() image into this engine, which must be freshly
  /// constructed (no traffic yet) with the same shard count, machine and
  /// scheduler options (checked; throws std::invalid_argument otherwise).
  /// Each shard image is read as restore_shard reads it, and all of them
  /// must carry the same wal_mark. Producer count, admission depth and
  /// spill budget are serving-side knobs, not state — they may differ. A
  /// restored engine's subsequent decisions and energies are bitwise
  /// identical to the uninterrupted run's; cache counters may differ
  /// (caches restart cold).
  /// Returns the images' common wal_mark stamp.
  std::uint64_t restore(std::istream& is);

  /// Serializes ONE healthy shard — same quiesce/drain contract as
  /// checkpoint(), but scoped to the shard, so a deployment can keep
  /// per-shard images and restore shards independently (partial-shard
  /// failover; a quarantined shard is the one thing it refuses to save).
  void checkpoint_shard(std::size_t shard_index, std::ostream& os,
                        std::uint64_t wal_mark = 0);

  /// Restores a checkpoint_shard() image into shard `shard_index` of this
  /// engine (fresh, same compatibility contract as restore()). Shards may
  /// be restored from *different* generations — streams are pinned to
  /// shards, so recovery replays each shard from its own wal_mark (see
  /// stream/recovery). Returns the image's wal_mark stamp.
  std::uint64_t restore_shard(std::size_t shard_index, std::istream& is);

  /// Shards currently quarantined (worker died; sessions stranded).
  [[nodiscard]] std::size_t num_quarantined_shards() const;

  /// Stops accepting ops (late enqueues from laggard producers are refused
  /// and counted, not raced), drains, stops the workers, and returns every
  /// finalized StreamResult sorted by stream id. snapshot() keeps working
  /// on the final state. Streams never closed remain unreported (their
  /// live traffic stays in the snapshot tallies).
  std::vector<StreamResult> finish();

  [[nodiscard]] EngineSnapshot snapshot() const;

 private:
  struct ShardOp {
    enum class Kind : std::uint8_t { kOpen, kArrival, kAdvance, kClose };
    Kind kind = Kind::kArrival;
    StreamId stream = 0;
    double time = 0.0;  // kAdvance target
    model::Job job;     // kArrival payload
  };

  struct Shard {
    Shard(const EngineOptions& options, std::size_t index)
        : index(index),
          sessions(options.machine, options.scheduler,
                   options.record_decisions, options.spill) {
      queues.reserve(options.max_producers);
      for (std::size_t p = 0; p < options.max_producers; ++p)
        queues.push_back(
            std::make_unique<SpscQueue<ShardOp>>(options.queue_capacity));
    }

    [[nodiscard]] bool queues_empty() const {
      for (const auto& queue : queues)
        if (!queue->empty()) return false;
      return true;
    }
    [[nodiscard]] std::size_t queue_depth() const {
      std::size_t depth = 0;
      for (const auto& queue : queues) depth += queue->size();
      return depth;
    }

    /// One SPSC ring per producer slot; MPSC by composition.
    std::vector<std::unique_ptr<SpscQueue<ShardOp>>> queues;
    std::size_t index = 0;  // which shard this is (fault site naming)
    SessionTable sessions;  // worker-owned after start
    std::thread worker;

    // Producer-side tallies (atomic so snapshot() can read cross-thread).
    std::atomic<long long> enqueued{0};
    std::atomic<long long> admission_rejects{0};
    std::atomic<long long> queue_rejects{0};
    std::atomic<long long> full_waits{0};
    std::atomic<long long> late_rejects{0};

    // Quarantine: flipped (once) by the worker when a non-recoverable
    // fault escapes the per-op containment; the worker then exits and the
    // shard refuses traffic (quarantined_rejects) while the rest of the
    // engine keeps serving.
    std::atomic<bool> quarantined{false};
    std::atomic<long long> quarantined_rejects{0};

    // Sleep/wake handshake (see worker_loop for the fence protocol).
    std::atomic<bool> sleeping{false};
    std::mutex wake_mutex;
    std::condition_variable wake_cv;

    // Stats the worker publishes once per batch; guarded by stats_mutex.
    mutable std::mutex stats_mutex;
    std::condition_variable drained_cv;  // signaled on every publish
    ShardSnapshot published;
  };

  bool enqueue(std::size_t slot, std::size_t shard_index, ShardOp op);
  void release_producer(std::size_t slot);
  void wake(Shard& shard);
  void worker_loop(Shard& shard);
  void stop();

  /// Waits up to quiesce_timeout_ms for extra producers to release; on
  /// timeout counts a refusal and returns false.
  bool quiesce_producers();
  void drain_shard(Shard& shard);
  /// The one checkpoint image codec (PSSSHRD6), shared by the shard and
  /// engine entry points. The reader checks the config block (shard count,
  /// machine, delta, record_decisions) against this engine and returns the
  /// image's wal_mark.
  void write_shard_image(std::ostream& os, Shard& shard,
                         std::uint64_t wal_mark) const;
  std::uint64_t read_shard_image(std::istream& is, Shard& shard);

  EngineOptions options_;
  StreamRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> paused_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> finished_{false};

  // Shutdown gate: enqueue() registers in in_flight_ before checking
  // accepting_; stop() flips accepting_ then waits in_flight_ out, so no op
  // can slip into a ring after the final drain target is read.
  std::atomic<bool> accepting_{true};
  std::atomic<long long> in_flight_{0};
  std::atomic<long long> checkpoint_refusals_{0};

  // Producer-slot registry (slot 0 is the owner thread, permanently taken).
  mutable std::mutex producer_mutex_;
  std::vector<bool> slot_used_;
  std::size_t active_producers_ = 0;
};

}  // namespace pss::stream
