// Shared test helpers: small-machine factories, kernel-driving utilities
// and a canonical "run a workload, dump its stats" harness used by the
// golden corpus and the parallel-equivalence sweep.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "msg/reliable.hpp"
#include "shm/scoma_region.hpp"
#include "sim/fastpath.hpp"
#include "sys/experiment.hpp"
#include "sys/machine.hpp"
#include "sys/stats_dump.hpp"
#include "trace/trace.hpp"

namespace sv::test {

inline sys::Machine::Params small_machine_params(
    std::size_t nodes, sys::Machine::NetKind net = sys::Machine::NetKind::kFatTree) {
  sys::Machine::Params p;
  p.nodes = nodes;
  p.net = net;
  p.node.dram_size = 8ull * 1024 * 1024;
  p.node.scoma_size = 1ull * 1024 * 1024;
  p.node.numa_backing_size = 8ull * 1024 * 1024;
  return p;
}

/// Drive `kernel` until `pred` holds; fail the test on timeout.
inline void drive(sim::Kernel& kernel, const std::function<bool()>& pred,
                  sim::Tick timeout = 100 * sim::kMillisecond) {
  ASSERT_TRUE(sys::run_until(kernel, pred, kernel.now() + timeout))
      << "simulation timed out at " << kernel.now() << " ps";
}

/// Run a single coroutine to completion on a bare kernel.
inline void run_co(sim::Kernel& kernel, sim::Co<void> co,
                   sim::Tick timeout = 100 * sim::kMillisecond) {
  sim::OneShot done(kernel);
  sim::spawn([](sim::Co<void> c, sim::OneShot* d) -> sim::Co<void> {
    co_await std::move(c);
    d->fire();
  }(std::move(co), &done));
  drive(kernel, [&] { return done.fired(); }, timeout);
}

/// Packet-conservation invariant checker (used by every fault test): after
/// `drain` of additional simulated time, everything the network's inject()
/// accepted must be accounted for — delivered or dropped, nothing stuck.
/// The drain runs in whole lookahead epochs so it is valid (and lands on
/// the same instant) for sequential and partitioned machines alike.
inline void expect_network_conserves(sys::Machine& machine,
                                     sim::Tick drain = 2 * sim::kMillisecond) {
  (void)sys::run_until(machine, [] { return false; },
                       machine.now() + drain);
  const auto a = machine.network().audit();
  EXPECT_TRUE(a.balanced())
      << "packet conservation violated: injected=" << a.injected
      << " delivered=" << a.delivered << " dropped=" << a.dropped
      << " unaccounted=" << a.in_flight();
}

inline std::vector<std::byte> pattern_bytes(std::size_t n,
                                            std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 13 + seed) & 0xFF);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Canonical workload harness (golden corpus + parallel-equivalence sweep)
// ---------------------------------------------------------------------------

enum class Workload {
  kMsg,       ///< all-to-all Basic messaging, one driver per node
  kShm,       ///< S-COMA load/store contention on a few shared words
  kReliable,  ///< ReliableChannel ring (survives drop/overflow faults)
};

struct RunSpec {
  Workload workload = Workload::kMsg;
  std::size_t nodes = 4;
  unsigned threads = 0;  ///< 0 = sequential single-domain machine
  sys::Machine::NetKind net = sys::Machine::NetKind::kIdeal;
  fault::Plan fault;
  /// The bus bypass (DESIGN.md §12). Defaults to the process
  /// environment (SV_NO_FASTPATH); fastpath_test pins it both ways to
  /// assert byte-identity within one process.
  bool fastpath = sim::fastpath_default();

  std::uint64_t count = 20;  ///< messages per node (kMsg / kReliable)
  std::uint64_t bytes = 32;  ///< payload bytes per message
  std::uint64_t ops = 60;    ///< loads+stores per node (kShm)
  std::uint64_t seed = 42;   ///< base seed for kShm access streams

  // ReliableChannel knobs (kReliable only).
  std::size_t window = 16;
  sim::Tick retransmit_timeout = 20 * sim::kMicrosecond;
  unsigned give_up_after = 8;

  std::size_t trace_capacity = 0;  ///< >0 attaches tracers, captures spans
  sim::Tick deadline = 2000 * sim::kMillisecond;
  bool check_conservation = true;
};

struct RunResult {
  bool completed = false;
  sim::Tick end_time = 0;    ///< machine.now() after the run (and drain)
  std::string stats_json;    ///< sys::dump_stats_json of the whole machine
  std::string span_dump;     ///< trace::canonical_span_dump (tracing only)
  std::uint64_t trace_dropped = 0;
  fault::Stats fault_stats;  ///< zeroes when the plan created no injector
  // Mode-variant engagement counters, deliberately outside stats_json.
  std::uint64_t fast_hits = 0;  ///< bus bypass completions, all nodes
  std::uint64_t executed = 0;   ///< host events dispatched
};

/// Bus bypass completions summed over every node (0 in slow mode).
inline std::uint64_t fast_path_hits(sys::Machine& machine) {
  std::uint64_t hits = 0;
  for (sim::NodeId i = 0; i < machine.size(); ++i) {
    hits += machine.node(i).bus().fast_path_hits();
  }
  return hits;
}

namespace detail {

inline void start_msg_drivers(sys::Machine& machine, const RunSpec& spec,
                              std::vector<std::unique_ptr<msg::Endpoint>>& eps,
                              std::vector<std::uint8_t>& done) {
  const auto map = machine.addr_map();
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    eps.push_back(std::make_unique<msg::Endpoint>(
        machine.node(n).ap(), machine.node(n).endpoint_config()));
  }
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).ap().run(
        [](msg::Endpoint* ep, msg::AddressMap map_, sim::NodeId self,
           std::size_t nodes, std::uint64_t count, std::uint64_t bytes,
           std::uint8_t* flag) -> sim::Co<void> {
          std::vector<std::byte> payload(bytes);
          for (std::uint64_t i = 0; i < count; ++i) {
            const auto dst = static_cast<sim::NodeId>(
                (self + 1 + i % (nodes - 1)) % nodes);
            co_await ep->send(map_.user0(dst), payload);
          }
          for (std::uint64_t i = 0; i < count; ++i) {
            (void)co_await ep->recv();
          }
          *flag = 1;
        }(eps[n].get(), map, n, machine.size(), spec.count, spec.bytes,
          &done[n]));
  }
}

inline void start_shm_drivers(sys::Machine& machine, const RunSpec& spec,
                              std::vector<std::uint8_t>& done) {
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).ap().run(
        [](sys::Node* node, std::uint64_t ops, std::uint64_t seed,
           std::uint8_t* flag) -> sim::Co<void> {
          // Every node hammers the same few shared words from its own
          // processor — the cross-node sharing the coherence protocol
          // exists for — with a private, seed-derived access stream.
          sim::Rng rng(seed);
          shm::ScomaRegion region(node->ap());
          for (std::uint64_t i = 0; i < ops; ++i) {
            const mem::Addr off = 0x1000 + rng.below(8) * 64;
            if (rng.chance(0.5)) {
              co_await region.store<std::uint32_t>(
                  off, static_cast<std::uint32_t>(i));
            } else {
              (void)co_await region.load<std::uint32_t>(off);
            }
          }
          *flag = 1;
        }(&machine.node(n), spec.ops,
          spec.seed ^ (0x9e3779b97f4a7c15ull * (n + 1)), &done[n]));
  }
}

inline void start_reliable_drivers(
    sys::Machine& machine, const RunSpec& spec,
    std::vector<std::unique_ptr<msg::Endpoint>>& eps,
    std::vector<std::unique_ptr<msg::ReliableChannel>>& chans,
    std::vector<std::uint8_t>& done) {
  const auto map = machine.addr_map();
  msg::ReliableChannel::Params cp;
  cp.window = spec.window;
  cp.retransmit.base_timeout = spec.retransmit_timeout;
  cp.retransmit.give_up_after = spec.give_up_after;
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    eps.push_back(std::make_unique<msg::Endpoint>(
        machine.node(n).ap(), machine.node(n).endpoint_config()));
    chans.push_back(
        std::make_unique<msg::ReliableChannel>(*eps[n], map, n, cp));
    chans[n]->start();
  }
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).ap().run(
        [](msg::ReliableChannel* ch, sim::NodeId self, std::size_t nodes,
           std::uint64_t count, std::uint64_t bytes,
           std::uint8_t* flag) -> sim::Co<void> {
          const auto right = static_cast<sim::NodeId>((self + 1) % nodes);
          const auto left =
              static_cast<sim::NodeId>((self + nodes - 1) % nodes);
          for (std::uint64_t i = 0; i < count; ++i) {
            std::vector<std::byte> payload(bytes);
            for (std::size_t b = 0; b < payload.size(); ++b) {
              payload[b] = static_cast<std::byte>(self + i + b);
            }
            co_await ch->send(right, payload);
          }
          for (std::uint64_t i = 0; i < count; ++i) {
            (void)co_await ch->recv(left);
          }
          *flag = 1;
        }(chans[n].get(), n, machine.size(), spec.count, spec.bytes,
          &done[n]));
  }
}

}  // namespace detail

/// Build a machine for `spec`, start one driver coroutine per node, run to
/// completion in whole lookahead epochs and return the machine-wide stats
/// JSON (plus the canonical trace-span dump when tracing is on).
///
/// The drivers are partition-safe by construction: every completion flag,
/// endpoint, channel and region is owned by exactly one node's domain, and
/// the run is driven through Machine::run_epochs_until. The identical
/// RunSpec therefore produces a byte-identical RunResult at every
/// Params::threads value — that equivalence is what
/// parallel_equivalence_test asserts and golden_test pins over time.
inline RunResult run_machine_and_dump_stats(const RunSpec& spec) {
  auto mp = small_machine_params(spec.nodes, spec.net);
  mp.threads = spec.threads;
  mp.fault = spec.fault;
  mp.node.bus.fastpath = spec.fastpath;
  sys::Machine machine(mp);
  if (spec.trace_capacity > 0) {
    machine.enable_tracing(spec.trace_capacity);
  }

  std::vector<std::unique_ptr<msg::Endpoint>> eps;
  std::vector<std::unique_ptr<msg::ReliableChannel>> chans;
  std::vector<std::uint8_t> done(machine.size(), 0);
  switch (spec.workload) {
    case Workload::kMsg:
      detail::start_msg_drivers(machine, spec, eps, done);
      break;
    case Workload::kShm:
      detail::start_shm_drivers(machine, spec, done);
      break;
    case Workload::kReliable:
      detail::start_reliable_drivers(machine, spec, eps, chans, done);
      break;
  }

  // Completion is evaluated at epoch boundaries only (workers parked), so
  // reading the per-node flags and channel state here is race-free and the
  // stop boundary is the same whatever the thread count. Reliable runs
  // additionally wait for empty retransmit windows and balanced books —
  // tail ACKs are droppable too.
  const auto all_done = [&] {
    for (const auto f : done) {
      if (f == 0) {
        return false;
      }
    }
    for (const auto& ch : chans) {
      if (ch->unacked() != 0) {
        return false;
      }
    }
    return chans.empty() || machine.network().audit().balanced();
  };

  RunResult res;
  res.completed =
      sys::run_until(machine, all_done, machine.now() + spec.deadline);
  EXPECT_TRUE(res.completed)
      << "workload timed out at " << machine.now() << " ps";

  if (spec.workload == Workload::kReliable && res.completed) {
    for (const auto& ch : chans) {
      EXPECT_EQ(ch->stats().payloads_delivered.value(), spec.count);
      EXPECT_EQ(ch->unacked(), 0u);
      for (sim::NodeId peer = 0; peer < machine.size(); ++peer) {
        EXPECT_FALSE(ch->failed(peer));
      }
    }
  }
  if (spec.check_conservation && res.completed) {
    expect_network_conserves(machine);
  }

  res.end_time = machine.now();
  res.fast_hits = fast_path_hits(machine);
  res.executed = machine.events_executed();
  if (machine.fault_injector() != nullptr) {
    res.fault_stats = machine.fault_injector()->stats();
  }
  std::ostringstream os;
  sys::dump_stats_json(machine, os);
  res.stats_json = os.str();
  if (spec.trace_capacity > 0) {
    const auto trs = machine.tracers();
    for (const auto* t : trs) {
      res.trace_dropped += t->dropped();
    }
    res.span_dump = trace::canonical_span_dump(trs);
  }
  return res;
}

}  // namespace sv::test
