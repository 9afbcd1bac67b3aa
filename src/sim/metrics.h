// Message accounting for the simulated protocols: how many messages and
// bytes the decentralized mechanisms exchange (used by the n_cut ablation —
// the paper's §III.B.2 claims the n_cut limit "controls a messaging workload
// in a distributed system", which the ablation quantifies).
//
// Categories are taken as std::string_view and looked up through a
// transparent comparator, so the per-message hot path (record() runs for
// every simulated message of every gossip cycle) allocates a std::string
// only the first time a category is seen, never per message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace bcc {

/// Per-category message/byte counters, plus fault-event counters filled in
/// by the fault-injection layer (sim/fault.h) and the resilient gossip path
/// (core/async_overlay): messages dropped by the lossy channel or a crashed
/// receiver, duplicated deliveries, sender retries after ack timeouts, and
/// peers marked suspected after consecutive missed acks.
///
/// The counters live on the obs substrate: each instance holds its own
/// obs::Counter per fault kind (the accessors below are thin wrappers over
/// Counter::value(), keeping the pre-obs API intact), and every record /
/// count_* call additionally bumps the process-wide totals in
/// obs::Registry::global() (`bcc.sim.messages`, `bcc.sim.bytes`,
/// `bcc.sim.faults_*`) so exporters see gossip traffic without having to
/// find every SyncGossip/EventEngine instance.
class MessageMetrics {
 public:
  MessageMetrics();

  /// Records one message of `bytes` payload under `category`.
  void record(std::string_view category, std::size_t bytes);

  std::size_t messages(std::string_view category) const;
  std::size_t bytes(std::string_view category) const;

  std::size_t total_messages() const;
  std::size_t total_bytes() const;

  // -- Fault events (see file comment). Thin wrappers over the re-homed
  //    obs counters; per-instance values, global registry mirrored.
  void count_dropped();
  void count_duplicated();
  void count_retried();
  void count_suspected();

  std::size_t dropped() const {
    return static_cast<std::size_t>(dropped_.value());
  }
  std::size_t duplicated() const {
    return static_cast<std::size_t>(duplicated_.value());
  }
  std::size_t retried() const {
    return static_cast<std::size_t>(retried_.value());
  }
  std::size_t suspected() const {
    return static_cast<std::size_t>(suspected_.value());
  }

  /// Resets this instance's counters (the global registry totals are
  /// cumulative across instances and are not touched).
  void reset();

 private:
  struct Counter {
    std::size_t messages = 0;
    std::size_t bytes = 0;
  };
  // std::less<> enables heterogeneous find with string_view keys.
  std::map<std::string, Counter, std::less<>> counters_;
  obs::Counter dropped_;
  obs::Counter duplicated_;
  obs::Counter retried_;
  obs::Counter suspected_;
};

}  // namespace bcc
