// The canonical workloads, defined once: svsim, svexplore's reliable ring,
// the test harnesses and the checkpoint scenarios all start their runs
// here.
//
// Each workload is a spec: its knobs with their defaults, and
// from_config(), which reads the workload's keys and range-checks them (a
// bad value throws std::invalid_argument with a one-line message).
// start() spawns the per-node drivers on a machine, in a fixed order, and
// returns the handle the caller drives to completion.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/apps.hpp"
#include "sim/config.hpp"
#include "xfer/approaches.hpp"

namespace sv::app {

/// svsim's machine: nodes radix threads net dram_mb scoma_mb scoma and
/// fault.* (fault::Plan::from_config).
[[nodiscard]] sys::Machine::Params machine_params(const sim::Config& cfg);

/// ReliableChannel knobs: window, timeout_us, give_up.
[[nodiscard]] msg::ReliableChannel::Params channel_params(
    const sim::Config& cfg);

/// Drivers running on one machine. Every flag, endpoint and channel
/// belongs to one node's domain, so a caller may read them at epoch
/// boundaries under any threads= value. The drivers point into it, so it
/// lives on the heap and never moves.
struct WorkloadRun {
  explicit WorkloadRun(std::size_t nodes) : done(nodes, 0) {}

  std::vector<std::uint8_t> done;  ///< per node; 1 where no driver runs
  std::vector<std::unique_ptr<msg::Endpoint>> endpoints;
  std::vector<std::unique_ptr<msg::ReliableChannel>> channels;
  std::unique_ptr<World> world;  ///< app.* only
  AppResult app;                 ///< app.* only
  /// Per node, the ring oracle's first rejected payload ("" = none).
  std::vector<std::string> mismatch;

  /// Every driver (and the World, if any) has finished.
  [[nodiscard]] bool finished() const;
  /// DATA frames still unacknowledged, over every channel.
  [[nodiscard]] std::size_t unacked() const;
  /// What the oracle rejected so far ("" = nothing).
  [[nodiscard]] std::string violation() const;
  /// Append the World's app.* counters, if any.
  void add_stats(sim::StatRegistry& reg) const;
};

/// msg / express: node n sends `count` messages round-robin to the other
/// nodes and receives `count`. It receives first whenever its sent -
/// received reaches the Rx queue's slot count, so no Rx queue overflows.
struct MsgWorkload {
  bool express = false;
  std::uint64_t count = 100;
  std::uint64_t bytes = 32;  ///< Basic payload (express carries 5 bytes)

  static MsgWorkload from_config(const sim::Config& cfg, bool express);
  [[nodiscard]] std::unique_ptr<WorkloadRun> start(sys::Machine& m) const;
};

/// scoma / numa: every node issues `ops` seeded 50/50 loads and stores on
/// the same `words` shared lines, each node with its own stream.
struct ShmWorkload {
  bool scoma = true;
  std::uint64_t ops = 200;
  std::uint64_t words = 16;
  std::uint64_t seed = 42;

  static ShmWorkload from_config(const sim::Config& cfg, bool scoma);
  [[nodiscard]] std::unique_ptr<WorkloadRun> start(sys::Machine& m) const;
};

/// reliable: every node streams `count` payloads to its right neighbour
/// over a ReliableChannel and checks the `count` it gets from its left.
struct RingWorkload {
  std::uint64_t count = 100;
  std::uint64_t bytes = 64;
  msg::ReliableChannel::Params channel;

  /// Runs on node `self`'s domain when its channel gives up on `peer`.
  using GiveUp = std::function<void(sim::NodeId self, sim::NodeId peer)>;

  static RingWorkload from_config(const sim::Config& cfg);
  [[nodiscard]] std::unique_ptr<WorkloadRun> start(
      sys::Machine& m, const GiveUp& give_up = nullptr) const;
  /// The payload node `src` sends as its i-th message.
  [[nodiscard]] static std::vector<std::byte> payload(sim::NodeId src,
                                                      std::uint64_t i,
                                                      std::uint64_t bytes);
};

/// dma: node 0 DMA-writes `bytes` to node 1, which waits for the notice.
struct DmaWorkload {
  std::uint64_t bytes = 65536;

  static DmaWorkload from_config(const sim::Config& cfg);
  [[nodiscard]] std::unique_ptr<WorkloadRun> start(sys::Machine& m) const;
};

/// xfer: one Figure-3/4 block transfer, node 0 to node 1, through
/// xfer::BlockTransferHarness (which drives a sequential machine itself).
struct XferWorkload {
  int approach = 3;
  std::uint32_t bytes = 16384;
  bool consume = false;  ///< from_config defaults it to approach >= 4

  static XferWorkload from_config(const sim::Config& cfg);
  [[nodiscard]] xfer::TransferResult run(sys::Machine& m) const;
};

enum class AppKind { kStencil, kAllreduce, kKv };

/// app.stencil / app.allreduce / app.kv on an app::World.
struct AppWorkload {
  AppKind app = AppKind::kStencil;
  World::Params world;
  StencilParams stencil;
  AllreduceParams allreduce;
  KvParams kv;

  /// `name` is the svsim workload name, "app.stencil" and so on.
  static AppWorkload from_config(const sim::Config& cfg,
                                 const std::string& name);
  [[nodiscard]] std::unique_ptr<WorkloadRun> start(sys::Machine& m) const;
};

}  // namespace sv::app
