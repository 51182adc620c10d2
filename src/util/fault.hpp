// Deterministic fault injection: named crash/error sites for recovery drills.
//
// Production code marks its crash-relevant points with PSS_FAULT_POINT("name")
// — one relaxed atomic load when nothing is armed. A drill arms a site to
// fire on a chosen hit index (deterministic: the N-th time execution passes
// the site after arming), so "kill the process at byte X of the checkpoint
// write" becomes a repeatable test instead of a hope. Three fault kinds:
//
//   kError — throws util::InjectedError (derives std::runtime_error). Models
//     a recoverable error; the per-op containment nets catch it.
//   kCrash — throws util::InjectedCrash, which deliberately does NOT derive
//     from std::exception: a kill must not be containable by the
//     catch (const std::exception&) blocks that contain per-op errors. Only
//     a drill harness (or a shard worker's quarantine net) catches it, and
//     everything the faulted code wrote before the site stays exactly as a
//     real kill would leave it — no cleanup, no completion.
//   kExit — std::_Exit(42): a true process kill for out-of-process drills
//     (ci/run_tier1.sh drives pss_cli serve this way).
//
// The injector also counts every hit per site even when nothing is armed
// (enable counting with set_counting(true)): a rehearsal run measures how
// often each site fires, and the drill then enumerates every (site, hit)
// pair — the kill-at-every-fault-site matrix in tests/test_recovery.cpp.
// arm_from_seed picks one hit pseudo-randomly (splitmix64) for sampled
// drills. Thread-safe: shard workers hit sites concurrently.
//
// The instance is process-global; tests disarm_all() + set_counting(false)
// on teardown (see FaultScope).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace pss::util {

/// Simulated process death. NOT a std::exception on purpose — see above.
struct InjectedCrash {
  const char* site;
};

/// Simulated recoverable error (per-op containment catches this).
class InjectedError : public std::runtime_error {
 public:
  explicit InjectedError(const std::string& what) : std::runtime_error(what) {}
};

class FaultInjector {
 public:
  enum class Kind : std::uint8_t { kError, kCrash, kExit };

  [[nodiscard]] static FaultInjector& instance();

  /// Arms `site`: hits number `after` .. `after + times - 1` (0-based,
  /// counted from this call) trigger `kind`. Re-arming a site replaces its
  /// previous arming and restarts its per-arming hit count.
  void arm(const std::string& site, long long after, Kind kind,
           long long times = 1);
  /// Arms a crash at one of `num_hits` upcoming hits of `site`, picked by
  /// splitmix64(seed) — the seed-driven sampled drill.
  void arm_from_seed(const std::string& site, std::uint64_t seed,
                     long long num_hits, Kind kind = Kind::kCrash);
  /// Reads PSS_FAULT_SITE / PSS_FAULT_AFTER / PSS_FAULT_KIND
  /// (error|crash|exit, default exit) / PSS_FAULT_TIMES and arms
  /// accordingly; no-op when PSS_FAULT_SITE is unset.
  void arm_from_env();
  void disarm_all();

  /// Hit accounting (counts accumulate while armed or counting).
  void set_counting(bool on);
  void reset_counts();
  [[nodiscard]] long long hits(const std::string& site) const;
  /// Sites hit since the last reset_counts(), sorted by name.
  [[nodiscard]] std::vector<std::string> sites_seen() const;

  /// The hook behind PSS_FAULT_POINT. Counts the hit and triggers the
  /// armed fault when this is the chosen hit. Only called when enabled().
  void check(const char* site);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

 private:
  FaultInjector() = default;

  struct Armed {
    long long after = 0;
    long long times = 1;
    Kind kind = Kind::kCrash;
    long long seen = 0;  // hits observed since arming
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Armed> armed_;
  std::unordered_map<std::string, long long> hits_;
  bool counting_ = false;
  std::atomic<bool> enabled_{false};
};

/// RAII drill scope: disarms everything and stops counting on destruction,
/// so one test's arming can never leak into the next.
struct FaultScope {
  FaultScope() = default;
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
  ~FaultScope() {
    FaultInjector::instance().disarm_all();
    FaultInjector::instance().set_counting(false);
    FaultInjector::instance().reset_counts();
  }
};

}  // namespace pss::util

/// Fault site marker: free when disarmed (one relaxed load), a drill hook
/// when armed. `site` must be a string literal (its pointer may be stored
/// in an InjectedCrash).
#define PSS_FAULT_POINT(site)                                       \
  do {                                                              \
    ::pss::util::FaultInjector& pss_fi_ =                           \
        ::pss::util::FaultInjector::instance();                     \
    if (pss_fi_.enabled()) pss_fi_.check(site);                     \
  } while (0)
