// The tentpole guarantee of the partitioned machine: a run at any thread
// count is *bit-identical* to the sequential run — the same stats JSON to
// the last byte and the same merged trace-span sequence — across
// workloads and fault seeds. This is the whole point of the deterministic
// (tick, source, sequence) mailbox rule; if any of these EXPECT_EQs break,
// parallel mode has silently become a different simulator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/test_util.hpp"

namespace sv {
namespace {

constexpr std::size_t kTraceCapacity = 1u << 19;
const std::uint64_t kSeeds[] = {sim::Rng::kDefaultSeed,
                                sim::Rng::kDefaultSeed + 1, 0xfeedbeef};

void expect_bit_identical_across_threads(test::RunSpec spec) {
  spec.net = sys::Machine::NetKind::kIdeal;
  spec.trace_capacity = kTraceCapacity;
  test::expect_bit_identical_across_threads(spec);
}

fault::Plan corrupt_only_plan(std::uint64_t seed) {
  // Corruption flips payload bytes but still delivers, so unreliable
  // workloads complete; the fault RNG streams and trace markers still get
  // exercised across domains.
  fault::Plan p;
  p.seed = seed;
  p.corrupt_rate = 0.05;
  return p;
}

fault::Plan lossy_plan(std::uint64_t seed) {
  fault::Plan p;
  p.seed = seed;
  p.drop_rate = 0.05;
  p.corrupt_rate = 0.05;
  p.rx_overflow_rate = 0.02;
  return p;
}

TEST(ParallelEquivalence, MsgAllToAllMatchesSequential) {
  for (const auto seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    test::RunSpec spec;
    spec.workload = test::Workload::kMsg;
    spec.nodes = 4;
    spec.count = 10;
    spec.bytes = 32;
    spec.fault = corrupt_only_plan(seed);
    expect_bit_identical_across_threads(spec);
  }
}

TEST(ParallelEquivalence, ScomaContentionMatchesSequential) {
  // No injector here: S-COMA protocol messages carry their command
  // structure in the packet payload, so corruption (the only fault that
  // unreliable traffic survives) would scramble the protocol itself. The
  // three seeds instead vary the access streams, which reshuffles every
  // coherence interleaving the epochs have to reproduce.
  for (const auto seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    test::RunSpec spec;
    spec.workload = test::Workload::kShm;
    spec.nodes = 4;
    spec.ops = 30;
    spec.seed = seed;
    expect_bit_identical_across_threads(spec);
  }
}

TEST(ParallelEquivalence, ReliableRingUnderLossMatchesSequential) {
  for (const auto seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    test::RunSpec spec;
    spec.workload = test::Workload::kReliable;
    spec.nodes = 4;
    spec.count = 8;
    spec.bytes = 48;
    spec.fault = lossy_plan(seed);
    // The completion predicate already requires balanced books; skip the
    // extra conservation drain, whose millisecond of retransmit-timer
    // traffic would need an enormous trace ring.
    spec.check_conservation = false;
    expect_bit_identical_across_threads(spec);
  }
}

TEST(ParallelEquivalence, FaultFreeMachineMatchesToo) {
  // No injector at all: the zero-fault fast path must be just as identical.
  test::RunSpec spec;
  spec.workload = test::Workload::kMsg;
  spec.nodes = 4;
  spec.count = 12;
  expect_bit_identical_across_threads(spec);
}

TEST(ParallelEquivalence, OversubscribedThreadsStillIdentical) {
  // More nodes than workers: each worker runs several domains; results
  // must not change (ParallelKernel clamps and stripes deterministically,
  // but the *simulation output* must be stripe-agnostic).
  test::RunSpec spec;
  spec.workload = test::Workload::kMsg;
  spec.nodes = 6;
  spec.count = 6;
  expect_bit_identical_across_threads(spec);
}

}  // namespace
}  // namespace sv
