// The benchmark's four canonical workloads, their output oracles, and one
// timed iteration of each.
//
// Every workload drives the simulator from outside, through its public
// API only: sys::Machine construction, endpoint/channel/World setup, a
// run to completion, the workload's own output check, and the stats dump.
// The benchmark times each of those calls itself (spans.hpp); the
// simulator is not instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "spans.hpp"

namespace svbench {

/// Names of the canonical workloads, in report order.
const std::vector<std::string>& workload_names();

/// Per-layer values of one iteration. An absent value is "n/a": the layer
/// does no work of that kind on this workload.
using LayerValues = std::map<std::string, std::optional<double>>;

/// Ops attempted and failed, as judged by a workload's output oracle.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // first few oracle findings

  void fail(std::uint64_t ops, const std::string& why);
};

struct IterationOptions {
  std::uint64_t seed = 1;
  /// Work per workload instance: kv requests per client, KiB per Figure-4
  /// approach, S-COMA ops per node, ring messages per node. 0 = default.
  std::uint64_t work = 0;
  /// Simulated deadline for the run phase; 0 = the workload's default.
  sv::sim::Tick deadline = 0;
  /// Record a timeline into an in-memory ring of this many events, write
  /// it with trace::write_chrome_trace_file to `trace_path`, and analyse
  /// the file with trace::TraceAnalysis. 0 = untraced.
  std::size_t trace_capacity = 0;
  std::string trace_path;
  /// Take a ckpt::capture of the machine after the run.
  bool capture = false;
};

/// Host-side timings (seconds) and simulated results of one iteration.
struct IterationResult {
  double construct_s = 0;  // sys::Machine::Machine
  double setup_s = 0;      // construction + endpoints/channels/World launch
  std::optional<double> launch_s;  // app::World::launch, if the workload
                                  // runs an app::World
  double run_s = 0;        // driving the machine to completion
  double stats_s = 0;      // sys::collect_stats + StatRegistry::dump_json
  double wall_s = 0;       // construction through stats dump
  bool finished = false;   // completed before the simulated deadline
  Outcome outcome;
  std::uint64_t events_executed = 0;
  std::uint32_t stats_crc = 0;  // CRC-32 of the collect_stats JSON dump
  LayerValues layers;           // simulated per-layer values
  // Only in traced / capturing iterations.
  double trace_write_s = 0;
  double capture_s = 0;
};

/// Run one iteration of `workload`. Throws std::invalid_argument for an
/// unknown workload name.
IterationResult run_iteration(const std::string& workload,
                              const IterationOptions& options,
                              SpanRecorder& spans);

// --- Output oracles --------------------------------------------------------
// Exposed so the benchmark's tests can plant faults in them.

/// scoma-mix: every load returns 0 or a value some node stored to that
/// line, and per (reader, line, writer) the writer sequence a reader
/// observes never goes backwards. Stores carry encode(writer, seq) with
/// seq counting that writer's stores from 1.
class ScomaOracle {
 public:
  ScomaOracle(std::size_t nodes, std::size_t lines);

  [[nodiscard]] static std::uint32_t encode(std::size_t writer,
                                            std::uint32_t seq);

  void stored(std::size_t writer, std::size_t line, std::uint32_t value);
  /// Record a load observation; loads are checked by check(), once every
  /// store is known.
  void loaded(std::size_t reader, std::size_t line, std::uint32_t value);

  /// Number of bad observations; describes the first few in `out`.
  std::uint64_t check(Outcome& out) const;

 private:
  struct Load {
    std::uint32_t reader;
    std::uint32_t line;
    std::uint32_t value;
  };
  std::size_t nodes_;
  std::size_t lines_;
  std::vector<std::vector<std::uint32_t>> line_of_store_;  // [writer][seq-1]
  std::vector<Load> loads_;                                // program order
};

/// kv-msg: what a run produced, as its oracle sees it. The kv checksum is
/// not used: it depends on the order in which clients reach the server.
struct KvObservation {
  bool finished = false;      // every rank done before the deadline
  std::uint64_t errors = 0;   // app::AppResult::errors
  std::uint64_t ops = 0;      // app::AppResult::ops (servers + clients)
  double msgs_sent = 0;       // app.total.msgs_sent
  double msgs_delivered = 0;  // app.total.msgs_delivered
};
/// `requests` is clients x requests per client: the ops attempted.
void check_kv(const KvObservation& o, std::uint64_t requests, Outcome& out);

/// fig4-sweep: approach a+1 passed the harness byte-verify iff
/// verified[a]; a failed approach fails its `kib` ops.
void check_fig4(std::span<const bool> verified, std::uint64_t kib,
                Outcome& out);

/// ring-256: what a run produced, as its oracle sees it.
struct RingObservation {
  bool finished = false;
  std::uint64_t consumed_ok = 0;   // payloads matching their pattern
  std::uint64_t consumed_bad = 0;  // lost, reordered, duplicated, corrupted
  std::uint64_t delivered = 0;     // sum of ReliableStats::payloads_delivered
  std::uint64_t give_ups = 0;      // retransmit give-up callbacks
  std::uint64_t injected = 0;      // net::Network::audit()
  std::uint64_t net_delivered = 0;
  std::uint64_t dropped = 0;
};
/// Every payload arrives exactly once, in order, with its byte pattern; no
/// give-up fires; the network audit balances. `payloads` = nodes x count.
void check_ring(const RingObservation& o, std::uint64_t payloads,
                Outcome& out);

/// ring-256: payload i from node `src` has a fixed byte pattern, so a
/// lost, duplicated, reordered or corrupted payload shows as a mismatch
/// at the receiver.
struct RingPattern {
  std::uint64_t salt = 0;
  [[nodiscard]] std::vector<std::byte> payload(std::size_t src,
                                               std::uint64_t index,
                                               std::size_t bytes) const;
  [[nodiscard]] bool matches(std::size_t src, std::uint64_t index,
                             std::span<const std::byte> got) const;
};

/// Seed of iteration `k`'s input within a run seeded `seed`. Every
/// iteration runs a different input, so a run's medians cover many drop
/// patterns and access streams instead of hinging on one.
std::uint64_t iteration_seed(std::uint64_t seed, std::uint64_t k);

/// Exact percentile (nearest rank) of `v`, which is sorted in place.
double percentile(std::vector<double>& v, double p);

}  // namespace svbench
