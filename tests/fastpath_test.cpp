// The functional-model fast path (DESIGN.md §12): prove the DMI-style bus
// bypass actually engages on the paper's figure-3/4 workloads, saves host
// events, AND changes nothing observable — stats JSON byte-identical to a
// slow-path (SV_NO_FASTPATH-equivalent) run of the same workload in the
// same process.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sys/stats_dump.hpp"
#include "tests/test_util.hpp"
#include "xfer/approaches.hpp"

namespace sv {
namespace {

struct XferOut {
  std::string stats;
  std::uint64_t fast_hits = 0;   // summed bus fast-path completions
  std::uint64_t executed = 0;    // host events actually dispatched
  std::uint64_t scheduled = 0;   // sequence numbers issued (mode-invariant)
};

/// Run one block-transfer approach on a 2-node fat tree with the bus
/// bypass pinned on or off, returning the machine stats plus the
/// mode-variant engagement counters (which are deliberately NOT part of
/// the stats dump — they differ between modes by design).
XferOut run_xfer(int approach, std::uint32_t bytes, bool fastpath) {
  auto mp = test::small_machine_params(2);
  mp.node.bus.fastpath = fastpath;
  sys::Machine machine(mp);
  xfer::BlockTransferHarness harness(machine);
  xfer::TransferSpec spec;
  spec.len = bytes;
  if (approach >= 4) {
    spec.dst = niu::kScomaBase + 0x8000;
  }
  xfer::RunOptions opt;
  opt.consume = approach >= 4;
  const auto res = harness.run(approach, spec, opt);
  EXPECT_TRUE(res.ok) << "approach " << approach << " failed verification";

  XferOut out;
  out.fast_hits = test::fast_path_hits(machine);
  out.executed = machine.events_executed();
  out.scheduled = machine.events_scheduled();
  std::ostringstream os;
  sys::dump_stats_json(machine, os);
  out.stats = os.str();
  return out;
}

/// The core contract, per workload: fast mode must (a) actually take the
/// bypass, (b) dispatch fewer host events, and (c) dump byte-identical
/// stats to slow mode.
void expect_engaged_and_identical(int approach, std::uint32_t bytes) {
  const XferOut fast = run_xfer(approach, bytes, /*fastpath=*/true);
  const XferOut slow = run_xfer(approach, bytes, /*fastpath=*/false);
  SCOPED_TRACE("approach " + std::to_string(approach) + " bytes " +
               std::to_string(bytes));
  EXPECT_EQ(slow.fast_hits, 0u);
  EXPECT_GT(fast.fast_hits, 0u) << "fast mode never took the bypass";
  EXPECT_LT(fast.executed, slow.executed)
      << "the bypass saved no host events";
  EXPECT_EQ(fast.stats, slow.stats) << "fast path changed observable stats";
  // Engagement report — useful when tuning eligibility.
  std::printf(
      "[fastpath] a%d %uB: fast_hits=%llu events %llu -> %llu "
      "(of %llu keys)\n",
      approach, bytes, static_cast<unsigned long long>(fast.fast_hits),
      static_cast<unsigned long long>(slow.executed),
      static_cast<unsigned long long>(fast.executed),
      static_cast<unsigned long long>(fast.scheduled));
}

TEST(FastPath, Fig3Approach1ByteIdentical) {
  expect_engaged_and_identical(1, 4096);
}

TEST(FastPath, Fig3Approach3ByteIdentical) {
  expect_engaged_and_identical(3, 4096);
}

TEST(FastPath, Fig4Approach3ByteIdentical) {
  expect_engaged_and_identical(3, 65536);
}

// Messaging and shared-memory workloads through the canonical harness:
// identical RunSpec, fastpath pinned each way, byte-identical results.
TEST(FastPath, MsgWorkloadByteIdentical) {
  test::RunSpec spec;
  spec.workload = test::Workload::kMsg;
  spec.nodes = 4;
  spec.count = 16;
  spec.bytes = 32;
  (void)test::expect_fastpath_invisible(spec);
}

TEST(FastPath, ShmWorkloadByteIdentical) {
  test::RunSpec spec;
  spec.workload = test::Workload::kShm;
  spec.nodes = 4;
  spec.ops = 40;
  (void)test::expect_fastpath_invisible(spec);
}

/// Fault injection does not switch the bypass off, and it stays
/// transparent under it: the reliable ring on a fat tree with every link,
/// router and Rx fault armed, over three seeds.
TEST(FastPath, ReliableUnderFaultsByteIdentical) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    test::RunSpec spec;
    spec.workload = test::Workload::kReliable;
    spec.nodes = 4;
    spec.net = sys::Machine::NetKind::kFatTree;
    spec.count = 16;
    spec.fault.seed = seed;
    spec.fault.drop_rate = 0.03;
    spec.fault.corrupt_rate = 0.03;
    spec.fault.link_down_rate = 0.01;
    spec.fault.router_stall_rate = 0.05;
    spec.fault.rx_overflow_rate = 0.02;

    const auto [fast, slow] = test::expect_fastpath_invisible(spec);
    EXPECT_GT(fast.fault_stats.drops.value(), 0u);
    EXPECT_GT(fast.fast_hits, 0u);
    EXPECT_EQ(slow.fast_hits, 0u);
    EXPECT_LT(fast.executed, slow.executed);
  }
}

/// app.kv over msg on 16 nodes with 150 requests per client: the drain
/// stops with bus reads mid-data-tenure, so both modes must count a
/// transaction only once it ends.
TEST(FastPath, KvMsg16NodesByteIdentical) {
  test::AppRunSpec spec;
  spec.app = test::AppKind::kKv;
  spec.world.transport = app::TransportKind::kMsg;
  spec.nodes = 16;
  spec.kv.requests = 150;

  const auto [fast, slow] = test::expect_fastpath_invisible(spec);
  EXPECT_GT(fast.fast_hits, 0u);
  EXPECT_LT(fast.executed, slow.executed);
}

/// The bypass composes with the partitioned kernel: a threaded fast run
/// matches a sequential slow run byte for byte (the strongest cross-mode
/// statement the suite makes).
TEST(FastPath, PartitionedFastMatchesSequentialSlow) {
  test::RunSpec spec;
  spec.workload = test::Workload::kMsg;
  spec.nodes = 4;
  spec.count = 12;
  spec.bytes = 64;

  spec.fastpath = true;
  spec.threads = 2;
  const auto fast_par = test::run_and_dump_stats(spec);
  spec.fastpath = false;
  spec.threads = 0;
  const auto slow_seq = test::run_and_dump_stats(spec);
  ASSERT_TRUE(fast_par.completed);
  ASSERT_TRUE(slow_seq.completed);
  EXPECT_EQ(fast_par.end_time, slow_seq.end_time);
  EXPECT_EQ(fast_par.stats_json, slow_seq.stats_json);
}

}  // namespace
}  // namespace sv
