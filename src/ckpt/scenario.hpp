// The reliable-ring scenario: the concrete workload tools/svexplore and
// tests/explorer_test explore.
//
// Every node streams `count` CRC-protected payloads to its right
// neighbour over msg::ReliableChannel and consumes `count` from its left,
// verifying each received payload byte-for-byte against the sender's
// deterministic pattern. Run under a scripted drop pattern
// (fault::Plan::drop_script), the outcome classifies the channel's
// contract:
//
//   completed, payloads correct          ok (give-up allowed: a final-ACK
//                                        loss burst can exhaust the
//                                        retransmit budget after every
//                                        payload already arrived)
//   any payload wrong / reordered /      violation (exactly-once or
//   duplicated                           in-order broken)
//   stuck at the deadline, some node     ok (give-up is the contract's
//   gave up                              declared-failure outcome)
//   stuck at the deadline, nobody        violation (liveness: neither
//   gave up                              delivery nor give-up)
//
// A run can start from a committed checkpoint: replay to the snapshot's
// tick (byte-verified against the file), with the drop pattern's indices
// interpreted relative to the drop-opportunity horizon recorded in the
// snapshot — so the explorer searches only placements after the
// checkpoint, exactly the "explore from here" workflow.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/explore.hpp"
#include "ckpt/snapshot.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace sv::ckpt {

struct RingSpec {
  std::uint64_t nodes = 2;
  std::uint64_t count = 20;
  std::uint64_t bytes = 32;
  std::uint64_t window = 8;
  std::uint64_t timeout_us = 20;
  std::uint64_t give_up = 4;
  std::uint64_t deadline_ms = 20;
  std::uint64_t fault_seed = 1;

  /// key=value lines, the snapshot-embedded form.
  [[nodiscard]] std::string to_config() const;
  /// Inverse of to_config(); throws ckpt::Error on malformed text or a
  /// non-ring scenario tag.
  static RingSpec from_config(const std::string& text);
  /// The spec keys of `cfg` (nodes count bytes window timeout_us give_up
  /// deadline_ms fault_seed), defaults for the rest.
  static RingSpec from_keys(const sim::Config& cfg);
};

/// Run the ring once with the given relative drop pattern. With `resume`,
/// the spec is taken from the snapshot, the replay is byte-verified at
/// the capture tick (throws Error on divergence — the drops all land
/// after it, so the prefix must match the fault-free original), and drop
/// indices are offset by the snapshot's recorded opportunity base.
[[nodiscard]] ScenarioResult run_reliable_ring(
    const RingSpec& spec, const std::vector<std::uint64_t>& drops,
    const Snapshot* resume = nullptr);

/// Run the fault-free ring to the first epoch boundary at/after `at` and
/// capture. The snapshot embeds the spec plus the drop-opportunity count
/// observed so far (`base_opp=`), which later resumed runs subtract.
[[nodiscard]] Snapshot checkpoint_reliable_ring(const RingSpec& spec,
                                                sim::Tick at);

/// Bind spec (+ optional resume point) into the explorer's ScenarioFn.
/// `resume`, when given, must outlive the returned function.
[[nodiscard]] ScenarioFn reliable_ring_scenario(RingSpec spec,
                                                const Snapshot* resume =
                                                    nullptr);

}  // namespace sv::ckpt
