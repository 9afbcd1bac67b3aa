#include "obs/profile.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace bcc::obs {

namespace {

// Slot lifecycle (see SamplingProfiler::Slot).
constexpr std::uint32_t kFree = 0;
constexpr std::uint32_t kWriting = 1;
constexpr std::uint32_t kReady = 2;

/// The instance whose handler is armed. The handler loads it with acquire
/// so a half-constructed profiler is never observed; stop() nulls it before
/// tearing anything down, making a straggler signal a no-op.
std::atomic<SamplingProfiler*> g_active{nullptr};

/// Serializes start()/stop() across instances: the itimer and the signal
/// disposition are process-wide, only one profiler may own them.
std::mutex& arm_mutex() {
  static std::mutex m;
  return m;
}

/// The sampler's own frames: the profiler and its signal handler, and the
/// signal-return trampoline when libc names it.
bool is_handler_frame(std::string_view frame) {
  for (std::string_view marker :
       {"SamplingProfiler", "signal_handler", "restore_rt", "killpg"}) {
    if (frame.find(marker) != std::string_view::npos) return true;
  }
  return false;
}

}  // namespace

struct SamplingProfiler::OsState {
  struct sigaction old_action {};
  struct itimerval old_timer {};
  int which = ITIMER_PROF;
};

SamplingProfiler::~SamplingProfiler() { stop(); }

void SamplingProfiler::signal_handler(int /*signo*/) {
  SamplingProfiler* p = g_active.load(std::memory_order_acquire);
  if (p != nullptr) p->capture();
}

void SamplingProfiler::capture() {
  // Async-signal-safe: errno save/restore, one CAS to claim a slot,
  // backtrace() into preallocated storage (warmed up in start()), one
  // release store to commit. Nothing here allocates, locks, or formats.
  const int saved_errno = errno;
  const std::uint64_t i =
      next_slot_.fetch_add(1, std::memory_order_relaxed) % kRingSlots;
  Slot& slot = ring_[i];
  std::uint32_t expected = kFree;
  if (!slot.state.compare_exchange_strong(expected, kWriting,
                                          std::memory_order_acq_rel)) {
    // Consumer hasn't drained this slot yet (or a concurrent handler on
    // another thread owns it): drop, never wait.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  const int depth = ::backtrace(slot.pcs, static_cast<int>(kMaxFrames));
  if (depth <= 0) {
    slot.state.store(kFree, std::memory_order_release);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  slot.depth = static_cast<std::uint32_t>(depth);
  slot.state.store(kReady, std::memory_order_release);
  samples_.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

bool SamplingProfiler::start(const Options& options) {
  std::lock_guard<std::mutex> arm(arm_mutex());
  if (g_active.load(std::memory_order_relaxed) != nullptr) return false;

  options_ = options;
  options_.hz = std::clamp(options_.hz, 1, 1000);
  signo_ = options_.mode == Mode::kCpu ? SIGPROF : SIGALRM;

  // Warm up glibc's unwinder BEFORE the handler can fire: the first
  // backtrace() call dlopens libgcc, which takes loader locks — deadlock
  // bait inside a signal handler, harmless here.
  void* warm[kMaxFrames];
  ::backtrace(warm, static_cast<int>(kMaxFrames));

  os_ = new OsState;
  os_->which = options_.mode == Mode::kCpu ? ITIMER_PROF : ITIMER_REAL;

  struct sigaction sa {};
  sa.sa_handler = &SamplingProfiler::signal_handler;
  sigemptyset(&sa.sa_mask);
  // SA_RESTART: sampled syscalls resume instead of surfacing EINTR to code
  // that never expected a profiler to exist.
  sa.sa_flags = SA_RESTART;
  if (::sigaction(signo_, &sa, &os_->old_action) != 0) {
    delete os_;
    os_ = nullptr;
    return false;
  }
  // Publish before arming the timer: the first tick must see a complete
  // instance.
  g_active.store(this, std::memory_order_release);

  const long interval_us = std::max(1L, 1000000L / options_.hz);
  struct itimerval tv {};
  tv.it_interval.tv_sec = interval_us / 1000000;
  tv.it_interval.tv_usec = interval_us % 1000000;
  tv.it_value = tv.it_interval;
  if (::setitimer(os_->which, &tv, &os_->old_timer) != 0) {
    g_active.store(nullptr, std::memory_order_release);
    ::sigaction(signo_, &os_->old_action, nullptr);
    delete os_;
    os_ = nullptr;
    return false;
  }
  running_.store(true, std::memory_order_release);
  return true;
}

void SamplingProfiler::stop() {
  std::lock_guard<std::mutex> arm(arm_mutex());
  if (g_active.load(std::memory_order_relaxed) != this) return;

  // Disarm the timer, then detach the handler's instance pointer. The old
  // signal disposition is restored only if it was a real handler: a signal
  // already in flight when we disarm would hit SIG_DFL (= terminate) if we
  // blindly restored a default disposition, so in that common case our
  // (now inert — g_active is null) handler stays installed instead.
  ::setitimer(os_->which, &os_->old_timer, nullptr);
  g_active.store(nullptr, std::memory_order_release);
  const bool old_is_handler = os_->old_action.sa_handler != SIG_DFL &&
                              os_->old_action.sa_handler != SIG_IGN;
  if (old_is_handler) ::sigaction(signo_, &os_->old_action, nullptr);
  running_.store(false, std::memory_order_release);
  delete os_;
  os_ = nullptr;

  std::lock_guard<std::mutex> lock(consumer_mutex_);
  drain_ring_locked();
}

const std::string& SamplingProfiler::symbol_of(void* pc) {
  auto it = symbols_.find(pc);
  if (it != symbols_.end()) return it->second;

  std::string name;
  Dl_info info{};
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      name = demangled;
    } else {
      name = info.dli_sname;
    }
    std::free(demangled);
  } else {
    // Static functions in a non-PIE binary often have no dynamic symbol:
    // keep the module-relative address, still resolvable offline via
    // addr2line against the binary.
    const char* module =
        info.dli_fname != nullptr ? std::strrchr(info.dli_fname, '/') : nullptr;
    const char* base = module != nullptr
                           ? module + 1
                           : (info.dli_fname != nullptr ? info.dli_fname : "?");
    char buf[256];
    const auto off = info.dli_fbase != nullptr
                         ? reinterpret_cast<std::uintptr_t>(pc) -
                               reinterpret_cast<std::uintptr_t>(info.dli_fbase)
                         : reinterpret_cast<std::uintptr_t>(pc);
    std::snprintf(buf, sizeof(buf), "%s+0x%zx", base,
                  static_cast<std::size_t>(off));
    name = buf;
  }
  // Folded format separators are structural: scrub them out of symbols.
  for (char& c : name) {
    if (c == ';' || c == '\n' || c == ' ') c = '_';
  }
  return symbols_.emplace(pc, std::move(name)).first->second;
}

void SamplingProfiler::drain_ring_locked() {
  std::string key;
  for (Slot& slot : ring_) {
    if (slot.state.load(std::memory_order_acquire) != kReady) continue;
    // backtrace() is leaf-first; folded stacks are root-first. Leading
    // frames are the handler + signal trampoline — skip any prefix that
    // symbolizes into profiler/signal plumbing so flamegraph leaves are
    // the interrupted code, not the sampler.
    std::size_t begin = 0;
    const std::size_t depth = std::min<std::size_t>(slot.depth, kMaxFrames);
    while (begin < depth && is_handler_frame(symbol_of(slot.pcs[begin]))) {
      ++begin;
    }
    key.clear();
    for (std::size_t i = depth; i-- > begin;) {
      key += symbol_of(slot.pcs[i]);
      if (i != begin) key += ';';
    }
    slot.state.store(kFree, std::memory_order_release);
    if (key.empty()) continue;
    ++aggregate_[key];
  }
}

std::vector<std::pair<std::string, std::uint64_t>> SamplingProfiler::folded() {
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  drain_ring_locked();
  std::vector<std::pair<std::string, std::uint64_t>> out(aggregate_.begin(),
                                                         aggregate_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return out;
}

std::string SamplingProfiler::folded_text() {
  std::string out;
  for (const auto& [stack, n] : folded()) {
    out += stack;
    out += ' ';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(n));
    out += buf;
    out += '\n';
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
SamplingProfiler::top_stacks(std::size_t n) {
  auto all = folded();
  if (all.size() > n) all.resize(n);
  return all;
}

void SamplingProfiler::publish_metrics() {
  // kLast: these are node-local scalars — a fleet merge keeping "whichever
  // node reported last" is explicitly what we want for running/unique, and
  // the sample totals that matter fleet-wide ride the profile summaries.
  Registry& r = Registry::global();
  std::size_t unique = 0;
  {
    std::lock_guard<std::mutex> lock(consumer_mutex_);
    drain_ring_locked();
    unique = aggregate_.size();
  }
  r.gauge("bcc.profile.samples", GaugeAgg::kSum)
      .set(static_cast<double>(samples()));
  r.gauge("bcc.profile.samples_dropped", GaugeAgg::kSum)
      .set(static_cast<double>(dropped()));
  r.gauge("bcc.profile.unique_stacks", GaugeAgg::kLast)
      .set(static_cast<double>(unique));
  r.gauge("bcc.profile.running", GaugeAgg::kLast).set(running() ? 1.0 : 0.0);
}

void SamplingProfiler::clear() {
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  drain_ring_locked();
  aggregate_.clear();
}

SamplingProfiler& SamplingProfiler::global() {
  // Leaked like Registry::global(): the handler may outlive static
  // destruction order games; the instance must never die first.
  static SamplingProfiler* instance = new SamplingProfiler();
  return *instance;
}

namespace {

/// The frames of a folded stack, root first, minus the trailing signal
/// frames.
std::vector<std::string_view> frames_of(std::string_view stack) {
  std::vector<std::string_view> frames;
  for (std::size_t begin = 0; begin <= stack.size();) {
    const std::size_t end = std::min(stack.find(';', begin), stack.size());
    frames.push_back(stack.substr(begin, end - begin));
    begin = end + 1;
  }
  while (!frames.empty() && is_signal_frame(frames.back())) frames.pop_back();
  return frames;
}

}  // namespace

bool is_signal_frame(std::string_view frame) {
  return is_handler_frame(frame) ||
         (frame.starts_with("libc.so") &&
          frame.find("+0x") != std::string_view::npos);
}

std::string_view stack_leaf(std::string_view stack) {
  const auto frames = frames_of(stack);
  return frames.empty() ? std::string_view{} : frames.back();
}

std::vector<std::pair<std::string, std::uint64_t>> inclusive_totals(
    const std::vector<std::pair<std::string, std::uint64_t>>& folded) {
  std::unordered_map<std::string, std::uint64_t> totals;
  for (const auto& [stack, samples] : folded) {
    auto frames = frames_of(stack);
    std::sort(frames.begin(), frames.end());  // a recursive frame counts once
    frames.erase(std::unique(frames.begin(), frames.end()), frames.end());
    for (std::string_view frame : frames) totals[std::string(frame)] += samples;
  }
  std::vector<std::pair<std::string, std::uint64_t>> out(totals.begin(),
                                                         totals.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return out;
}

}  // namespace bcc::obs
