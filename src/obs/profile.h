// Always-available, default-off sampling profiler: a SIGPROF/itimer
// sampler that answers "which code is hot right now?" without a rebuild,
// a restart, or an external tool — the attribution layer the serve-plane
// scaling work reports against (ROADMAP open item 2).
//
// How it works:
//   * start() arms setitimer(ITIMER_PROF) (or ITIMER_REAL in wall mode) at
//     ~hz samples/second and installs a SIGPROF (SIGALRM) handler. The
//     kernel delivers the signal to whichever thread is burning CPU, so
//     samples land where the time goes — across ALL threads, with zero
//     per-thread setup.
//   * The handler is async-signal-safe by construction: it calls
//     backtrace() (warmed up in start(), before the handler is installed,
//     because glibc's first call lazily dlopens libgcc — unsafe in a
//     handler), claims a preallocated slot with one lock-free CAS, copies
//     raw PCs, and commits with a release store. No malloc, no locks, no
//     formatting, no registry access. A full ring drops the sample and
//     bumps an atomic (visible as bcc.profile.samples_dropped).
//   * Aggregation and symbolization are lazy and happen on the *consumer*
//     thread (folded()/folded_text()): raw PCs fold into per-stack counts,
//     and each distinct PC is symbolized once through dladdr (demangled via
//     __cxa_demangle) and cached. Signal-side cost stays O(depth) memcpy.
//
// Output is Brendan Gregg's folded-stack format — "outer;inner N" per line,
// ready for flamegraph.pl / speedscope (`bcc profile --out stacks.folded`).
//
// Overhead contract (bench/profile_bench.cpp pins both sides): not running
// = one relaxed atomic load at each would-be hook, indistinguishable from
// off; running at the default 99 Hz = single-digit microseconds of handler
// time per second per busy thread (<5% on the serve overload bench).
//
// 99 Hz, not 100: the classic prime-adjacent rate, so sampling never
// phase-locks with 10ms/100ms periodic work and systematically hits (or
// misses) the same code.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bcc::obs {

/// See file comment. One process-wide instance (global()) — itimers and
/// signal dispositions are process-wide resources, so private instances
/// exist only for tests that start/stop them serially.
class SamplingProfiler {
 public:
  /// Raw PCs kept per sample; deeper stacks are truncated at the root end
  /// (the hot leaf frames are the ones that matter for a flamegraph).
  static constexpr std::size_t kMaxFrames = 48;
  /// Slot-ring capacity: bounds memory (kRingSlots * ~400B) and how long
  /// the consumer may sleep between drains at 99 Hz (~40s here).
  static constexpr std::size_t kRingSlots = 4096;

  /// What the itimer counts down against.
  enum class Mode : std::uint8_t {
    kCpu = 0,   ///< ITIMER_PROF/SIGPROF: fires per CPU second consumed
    kWall = 1,  ///< ITIMER_REAL/SIGALRM: fires per wall second (sees blocking)
  };

  struct Options {
    int hz = 99;            ///< target samples per second (clamped to [1,1000])
    Mode mode = Mode::kCpu;
  };

  SamplingProfiler() = default;
  ~SamplingProfiler();
  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  /// Arms the timer + handler. Returns false (and stays stopped) when a
  /// profiler is already running in this process — the signal disposition
  /// is process-wide, two owners cannot share it.
  bool start(const Options& options);
  bool start() { return start(Options()); }
  /// Disarms the timer, restores the previous signal disposition, and
  /// drains outstanding samples into the cumulative aggregate. Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Drains the ring into the cumulative aggregate and returns it as
  /// (folded stack, samples) pairs, hottest first. Symbolization happens
  /// here, once per distinct PC. Callable while running.
  std::vector<std::pair<std::string, std::uint64_t>> folded();
  /// folded() rendered one "stack count\n" line per entry — the flamegraph
  /// input format.
  std::string folded_text();
  /// The hottest `n` entries of folded() — the fleet telemetry payload.
  std::vector<std::pair<std::string, std::uint64_t>> top_stacks(std::size_t n);

  /// Mirrors the profiler's own counters into Registry::global() as
  /// bcc.profile.* (samples, samples_dropped, unique_stacks, running).
  /// Separate from the handler on purpose: the registry's mutex and maps
  /// are not async-signal-safe, so the handler only touches private
  /// atomics and this publishes them from a normal thread.
  void publish_metrics();

  /// Samples captured / dropped since construction (monotonic).
  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Forgets the cumulative aggregate (tests; the ring is untouched).
  void clear();

  static SamplingProfiler& global();

 private:
  // One preallocated sample slot. `state` cycles kFree -> kWriting (claimed
  // by the handler's CAS) -> kReady (release store after the PCs are in)
  // -> kFree (consumer). Claiming is lock-free and multi-signal-safe: two
  // overlapping handler runs on different threads CAS different outcomes.
  struct Slot {
    std::atomic<std::uint32_t> state{0};  // kFree
    std::uint32_t depth = 0;
    void* pcs[kMaxFrames];
  };

  static void signal_handler(int signo);
  void capture();               // handler body (instance side)
  void drain_ring_locked();     // folds kReady slots into aggregate_
  const std::string& symbol_of(void* pc);  // cached dladdr lookup

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> next_slot_{0};
  std::vector<Slot> ring_ = std::vector<Slot>(kRingSlots);

  std::mutex consumer_mutex_;  // guards aggregate_ + symbol cache + drain
  std::unordered_map<std::string, std::uint64_t> aggregate_;
  std::unordered_map<void*, std::string> symbols_;

  Options options_;
  int signo_ = 0;              // armed signal while running
  bool restore_handler_ = false;
  // Previous dispositions, restored by stop(). Storage lives in the .cpp
  // (sigaction/itimerval are POSIX types; keep <csignal> out of headers).
  struct OsState;
  OsState* os_ = nullptr;
};

// -- reading a folded profile ---------------------------------------------
// Folded stacks keep every frame for flamegraph tools, so each one still
// ends in the frames signal delivery adds; summaries for people skip them.

/// True for the profiler's handler frames and the signal-return trampoline,
/// which libc may leave unnamed (`libc.so.6+0x3c050`). An unnamed genuine
/// libc frame looks the same, so summaries charge it to its caller.
bool is_signal_frame(std::string_view frame);

/// The innermost non-signal frame of a folded stack ("" when none).
std::string_view stack_leaf(std::string_view stack);

/// Per-function inclusive sample totals (each function counted once per
/// sample whose stack holds it, signal frames left out), hottest first.
std::vector<std::pair<std::string, std::uint64_t>> inclusive_totals(
    const std::vector<std::pair<std::string, std::uint64_t>>& folded);

}  // namespace bcc::obs
