// Shared test helpers: small-machine factories, kernel-driving utilities
// and a canonical "run a workload, dump its stats" harness used by the
// golden corpus and the equivalence sweeps, for the canonical workloads
// (RunSpec) and the shipped applications (AppRunSpec) alike.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/workloads.hpp"
#include "ckpt/capture.hpp"
#include "sim/crc32.hpp"
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

/// Compare `actual` with the committed golden file at `path`, or rewrite
/// the file when SV_GOLDEN_WRITE is set and `may_write`. A mismatch fails
/// with both crc32s, the first diverging byte in context, and `what` (the
/// entry, and how to regenerate it).
inline void expect_golden(const std::string& path, const std::string& actual,
                          bool may_write, const std::string& what) {
  ASSERT_FALSE(actual.empty()) << path;
  if (may_write && std::getenv("SV_GOLDEN_WRITE") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << actual;
    ASSERT_TRUE(os.good()) << "write failed for " << path;
    return;
  }
  std::ifstream is(path);
  ASSERT_TRUE(is) << "missing golden file " << path << "; " << what;
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string expected = buf.str();
  if (actual == expected) {
    return;
  }
  std::size_t diff = 0;
  while (diff < actual.size() && diff < expected.size() &&
         actual[diff] == expected[diff]) {
    ++diff;
  }
  const auto excerpt = [&](const std::string& s) {
    return s.substr(diff < 40 ? 0 : diff - 40, 80);
  };
  const auto crc = [](const std::string& s) {
    return sim::crc32(std::as_bytes(std::span(s.data(), s.size())));
  };
  FAIL() << "output drifted from " << path << "\n  expected crc32="
         << std::hex << crc(expected) << " actual crc32=" << crc(actual)
         << std::dec << "\n  first divergence at byte " << diff
         << ":\n  golden: ..." << excerpt(expected) << "...\n  actual: ..."
         << excerpt(actual) << "...\n" << what;
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
// Canonical workload harness (golden corpus + parallel-equivalence sweep).
// The workloads themselves are the ones svsim runs (app/workloads.hpp).
// ---------------------------------------------------------------------------

/// What every harness run shares: the machine and how it is driven.
struct MachineSpec {
  std::size_t nodes = 4;
  unsigned threads = 0;  ///< 0 = sequential single-domain machine
  sys::Machine::NetKind net = sys::Machine::NetKind::kIdeal;
  fault::Plan fault;
  /// The bus bypass (DESIGN.md §12). Defaults to the process
  /// environment (SV_NO_FASTPATH); fastpath_test pins it both ways to
  /// assert byte-identity within one process.
  bool fastpath = sim::fastpath_default();

  std::size_t trace_capacity = 0;  ///< >0 attaches tracers, captures spans
  sim::Tick deadline = 2000 * sim::kMillisecond;
  bool check_conservation = true;

  [[nodiscard]] sys::Machine::Params machine_params() const {
    auto mp = small_machine_params(nodes, net);
    mp.threads = threads;
    mp.fault = fault;
    mp.node.bus.fastpath = fastpath;
    return mp;
  }
};

enum class Workload {
  kMsg,       ///< all-to-all Basic messaging, one driver per node
  kShm,       ///< S-COMA load/store contention on a few shared words
  kReliable,  ///< ReliableChannel ring (survives drop/overflow faults)
};

struct RunSpec : MachineSpec {
  Workload workload = Workload::kMsg;

  std::uint64_t count = 20;  ///< messages per node (kMsg / kReliable)
  std::uint64_t bytes = 32;  ///< payload bytes per message
  std::uint64_t ops = 60;    ///< loads+stores per node (kShm)
  std::uint64_t seed = 42;   ///< base seed for kShm access streams

  /// kReliable only.
  msg::ReliableChannel::Params channel{
      .retransmit = {.base_timeout = 20 * sim::kMicrosecond}};
};

using AppKind = app::AppKind;

/// One of the shipped applications over a chosen transport.
struct AppRunSpec : MachineSpec, app::AppWorkload {};

struct RunResult {
  bool completed = false;
  sim::Tick end_time = 0;    ///< machine.now() after the run (and drain)
  std::string stats_json;    ///< machine stats (+ app.* counters), one object
  std::string span_dump;     ///< trace::canonical_span_dump (tracing only)
  std::uint64_t trace_dropped = 0;
  fault::Stats fault_stats;  ///< zeroes when the plan created no injector
  app::AppResult app;        ///< app workloads only
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

/// Start the drivers `spec` names; the test shm workload is svsim's scoma
/// workload on 8 words.
inline std::unique_ptr<app::WorkloadRun> start_workload(sys::Machine& machine,
                                                        const RunSpec& spec) {
  switch (spec.workload) {
    case Workload::kMsg: {
      app::MsgWorkload w;
      w.count = spec.count;
      w.bytes = spec.bytes;
      return w.start(machine);
    }
    case Workload::kShm: {
      app::ShmWorkload w;
      w.ops = spec.ops;
      w.words = 8;
      w.seed = spec.seed;
      return w.start(machine);
    }
    case Workload::kReliable:
      break;
  }
  app::RingWorkload w;
  w.count = spec.count;
  w.bytes = spec.bytes;
  w.channel = spec.channel;
  return w.start(machine);
}

inline std::unique_ptr<app::WorkloadRun> start_workload(
    sys::Machine& machine, const AppRunSpec& spec) {
  return spec.start(machine);
}

/// Build a machine for `spec`, start its drivers, run to completion in
/// whole lookahead epochs and return the stats JSON (machine plus app.*
/// counters, plus the canonical trace-span dump when tracing is on).
///
/// The drivers are partition-safe by construction: every completion flag,
/// endpoint, channel and region is owned by exactly one node's domain, and
/// the run is driven through Machine::run_epochs_until. The identical spec
/// therefore produces a byte-identical RunResult at every
/// Params::threads value — that equivalence is what
/// parallel_equivalence_test asserts and golden_test pins over time.
template <typename Spec>
RunResult run_and_dump_stats(const Spec& spec) {
  sys::Machine machine(spec.machine_params());
  if (spec.trace_capacity > 0) {
    machine.enable_tracing(spec.trace_capacity);
  }
  const auto run = start_workload(machine, spec);

  // Completion is evaluated at epoch boundaries only (workers parked), so
  // reading the per-node flags and channel state here is race-free and the
  // stop boundary is the same whatever the thread count. Reliable runs
  // additionally wait for empty retransmit windows and balanced books —
  // tail ACKs are droppable too.
  const auto quiet = [&] {
    return run->finished() && run->unacked() == 0 &&
           (run->channels.empty() || machine.network().audit().balanced());
  };

  RunResult res;
  res.completed = sys::run_until(machine, quiet, machine.now() + spec.deadline);
  EXPECT_TRUE(res.completed)
      << "workload timed out at " << machine.now() << " ps";
  if (res.completed) {
    EXPECT_EQ(run->violation(), "");
    for (const auto& ch : run->channels) {
      for (sim::NodeId peer = 0; peer < machine.size(); ++peer) {
        EXPECT_FALSE(ch->failed(peer));
      }
    }
    if (spec.check_conservation) {
      expect_network_conserves(machine);
    }
  }

  res.end_time = machine.now();
  res.fast_hits = fast_path_hits(machine);
  res.executed = machine.events_executed();
  if (machine.fault_injector() != nullptr) {
    res.fault_stats = machine.fault_injector()->stats();
  }
  res.app = run->app;
  auto reg = sys::collect_stats(machine);
  run->add_stats(reg);
  std::ostringstream os;
  reg.dump_json(os);
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

/// Run `spec` sequentially, then at 1, 2 and 4 threads, and require the
/// same end time, app result, stats JSON and span dump every time. The
/// spec must use the ideal network (partitioning needs it) and a tracer
/// big enough that nothing is dropped — a wrapped ring would hide
/// divergence.
template <typename Spec>
void expect_bit_identical_across_threads(Spec spec) {
  spec.threads = 0;
  const RunResult seq = run_and_dump_stats(spec);
  ASSERT_TRUE(seq.completed);
  ASSERT_EQ(seq.trace_dropped, 0u)
      << "trace ring wrapped; grow the trace capacity so the comparison is "
         "complete";
  ASSERT_FALSE(seq.stats_json.empty());
  ASSERT_FALSE(seq.span_dump.empty());
  EXPECT_EQ(seq.app.errors, 0u);
  for (const unsigned threads : {1u, 2u, 4u}) {
    spec.threads = threads;
    const RunResult par = run_and_dump_stats(spec);
    ASSERT_TRUE(par.completed) << "threads=" << threads;
    EXPECT_EQ(par.trace_dropped, 0u) << "threads=" << threads;
    EXPECT_EQ(par.end_time, seq.end_time) << "threads=" << threads;
    EXPECT_EQ(par.app.checksum, seq.app.checksum) << "threads=" << threads;
    EXPECT_EQ(par.app.ops, seq.app.ops) << "threads=" << threads;
    EXPECT_EQ(par.stats_json, seq.stats_json)
        << "stats diverged at threads=" << threads;
    EXPECT_EQ(par.span_dump, seq.span_dump)
        << "trace spans diverged at threads=" << threads;
  }
}

/// Run `spec` with the bus bypass on, then off, and require the same end
/// time, app result and stats JSON: the bypass must be timing-invisible
/// (DESIGN.md §12). Returns {fast, slow} for mode-specific checks.
template <typename Spec>
std::pair<RunResult, RunResult> expect_fastpath_invisible(Spec spec) {
  spec.fastpath = true;
  RunResult fast = run_and_dump_stats(spec);
  spec.fastpath = false;
  RunResult slow = run_and_dump_stats(spec);
  EXPECT_TRUE(fast.completed && slow.completed);
  EXPECT_EQ(fast.app.errors, 0u);
  EXPECT_EQ(slow.end_time, fast.end_time);
  EXPECT_EQ(slow.app.checksum, fast.app.checksum);
  EXPECT_EQ(slow.app.ops, fast.app.ops);
  EXPECT_EQ(slow.stats_json, fast.stats_json)
      << "the bus bypass must be timing-invisible";
  return {std::move(fast), std::move(slow)};
}

/// A RunSpec or AppRunSpec run whose caller drives time, so the checkpoint
/// tests can capture it mid-flight, replay a second run to the same
/// boundary and byte-compare the snapshots — the restore contract of
/// DESIGN.md §14. App captures include the "app" chunk.
struct SteppableRun {
  sys::Machine machine;
  std::unique_ptr<app::WorkloadRun> run;

  template <typename Spec>
  explicit SteppableRun(const Spec& spec) : machine(spec.machine_params()) {
    if (spec.trace_capacity > 0) {
      machine.enable_tracing(spec.trace_capacity);
    }
    run = start_workload(machine, spec);
  }

  [[nodiscard]] bool finished() const {
    return run->finished() && run->unacked() == 0;
  }

  /// Drive to the first epoch boundary at/after `target` and capture.
  [[nodiscard]] ckpt::Snapshot capture_at(
      sim::Tick target, sim::Tick deadline = 2000 * sim::kMillisecond) {
    ckpt::run_to_tick(machine, target, machine.now() + deadline);
    return ckpt::capture(machine, run->world ? "app-run" : "run",
                         run->world.get());
  }

  void finish(sim::Tick deadline = 2000 * sim::kMillisecond) {
    ASSERT_TRUE(sys::run_until(machine, [&] { return finished(); },
                               machine.now() + deadline))
        << "workload timed out at " << machine.now() << " ps";
  }

  [[nodiscard]] std::string stats_json() {
    auto reg = sys::collect_stats(machine);
    run->add_stats(reg);
    std::ostringstream os;
    reg.dump_json(os);
    return os.str();
  }

  /// Canonical trace-span dump (tracing-enabled specs only).
  [[nodiscard]] std::string span_dump() const {
    return trace::canonical_span_dump(machine.tracers());
  }
};

}  // namespace sv::test
