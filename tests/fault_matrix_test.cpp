// Deterministic fault-matrix harness: the full fault plan (drops,
// corruption, link-down windows, router stalls, priority starvation and
// forced Rx overflow, all at once) against a 4-node reliable ring.
//
// The headline property is *replayability*: the entire fault schedule is a
// pure function of the master seed, so running the same matrix twice must
// produce bit-identical machine-wide statistics — every retransmit, every
// CRC reject, every queue occupancy sample. A different seed produces a
// different schedule but the run must still complete, conserve packets and
// deliver everything exactly once.
//
// The base seed can be overridden from the environment (SV_FAULT_SEED) so
// CI can sweep seeds without a rebuild.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <vector>

#include "fault/fault.hpp"
#include "msg/reliable.hpp"
#include "sys/stats_dump.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

std::uint64_t base_seed() {
  if (const char* e = std::getenv("SV_FAULT_SEED")) {
    return std::strtoull(e, nullptr, 10);
  }
  return sim::Rng::kDefaultSeed;
}

fault::Plan full_matrix_plan(std::uint64_t seed) {
  fault::Plan p;
  p.seed = seed;
  p.drop_rate = 0.05;
  p.corrupt_rate = 0.05;
  p.link_down_rate = 0.02;
  p.router_stall_rate = 0.05;
  p.starve_rate = 0.05;
  p.rx_overflow_rate = 0.02;
  return p;
}

/// Run a reliable ring (every node streams 25 payloads to its right
/// neighbour) on a 4-node fat tree under the full fault matrix via the
/// shared workload harness. The harness asserts completion, exactly-once
/// delivery counts and packet conservation; this wrapper additionally
/// checks the matrix actually fired and returns the machine-wide stats
/// JSON for replay comparison.
std::string run_matrix(std::uint64_t seed) {
  test::RunSpec spec;
  spec.workload = test::Workload::kReliable;
  spec.nodes = 4;
  spec.net = sys::Machine::NetKind::kFatTree;
  spec.fault = full_matrix_plan(seed);
  spec.count = 25;
  spec.bytes = 48;
  spec.channel.retransmit.base_timeout = 20 * sim::kMicrosecond;
  const test::RunResult res = test::run_and_dump_stats(spec);

  // The matrix must actually have fired: a fault plan this aggressive that
  // injects nothing would make the replay check vacuous.
  EXPECT_GT(res.fault_stats.drops.value(), 0u);
  EXPECT_GT(res.fault_stats.corrupts.value(), 0u);
  EXPECT_GT(res.fault_stats.router_stalls.value(), 0u);
  return res.stats_json;
}

TEST(FaultMatrixTest, ReplaySameSeedIsBitIdentical) {
  const std::uint64_t seed = base_seed();
  const std::string first = run_matrix(seed);
  const std::string second = run_matrix(seed);
  EXPECT_EQ(first, second)
      << "two runs of the identical fault matrix diverged (seed " << seed
      << ")";
}

TEST(FaultMatrixTest, DifferentSeedStillCompletes) {
  // A shifted seed reshuffles every fault stream; the run must still
  // terminate with exactly-once delivery and balanced books (asserted
  // inside run_matrix).
  (void)run_matrix(base_seed() + 1);
}

TEST(FaultMatrixTest, NamedStreamsAreDecorrelatedButStable) {
  const std::uint64_t s = base_seed();
  EXPECT_EQ(fault::Injector::stream_seed(s, "link.drop"),
            fault::Injector::stream_seed(s, "link.drop"));
  EXPECT_NE(fault::Injector::stream_seed(s, "link.drop"),
            fault::Injector::stream_seed(s, "link.corrupt"));
  EXPECT_NE(fault::Injector::stream_seed(s, "link.drop"),
            fault::Injector::stream_seed(s + 1, "link.drop"));
}

TEST(FaultMatrixTest, ZeroRatePlanCreatesNoInjector) {
  EXPECT_FALSE(fault::Plan{}.enabled());
  sys::Machine machine(test::small_machine_params(2));
  EXPECT_EQ(machine.fault_injector(), nullptr);
}

TEST(FaultMatrixTest, CheckpointPreservesInjectorCursorsBitIdentically) {
  // Mid-run checkpoint under the full fault matrix: the snapshot's
  // "fault" chunk records every lane's six raw RNG stream words plus the
  // per-category decision cursors, and a fresh machine replayed to the
  // same epoch boundary must land on the identical bytes — the injector's
  // schedule position survives restore bit for bit, which is what makes
  // the matrix replayable across a checkpoint.
  test::RunSpec spec;
  spec.workload = test::Workload::kReliable;
  spec.nodes = 4;
  spec.net = sys::Machine::NetKind::kFatTree;
  spec.fault = full_matrix_plan(base_seed());
  spec.count = 25;
  spec.bytes = 48;
  spec.channel.retransmit.base_timeout = 20 * sim::kMicrosecond;

  test::SteppableRun a(spec);
  const ckpt::Snapshot snap = a.capture_at(30 * sim::kMicrosecond);
  ASSERT_NE(a.machine.fault_injector(), nullptr);
  const std::vector<std::byte>* fault_chunk = snap.find("fault");
  ASSERT_NE(fault_chunk, nullptr);
  ASSERT_FALSE(fault_chunk->empty());
  // The matrix must have fired before the capture, or the cursor check
  // is vacuous.
  EXPECT_GT(a.machine.fault_injector()->drop_opportunities(), 0u);

  test::SteppableRun b(spec);
  const ckpt::Snapshot replay = b.capture_at(snap.tick);
  ASSERT_EQ(replay.tick, snap.tick);
  const std::vector<std::byte>* replay_chunk = replay.find("fault");
  ASSERT_NE(replay_chunk, nullptr);
  EXPECT_EQ(*replay_chunk, *fault_chunk)
      << "injector RNG streams / cursors diverged across restore";
  try {
    ckpt::Snapshot::verify(snap, replay);
  } catch (const ckpt::Error& e) {
    ADD_FAILURE() << e.what();
  }

  // Both machines ride the same fault schedule to the end.
  a.finish();
  b.finish();
  EXPECT_EQ(a.stats_json(), b.stats_json());
}

TEST(FaultMatrixTest, GiveUpSurfacesAsTxQueueShutdown) {
  // A black-holed fabric (100% drop) must not hang the sender forever:
  // the retransmit engine exhausts its attempts, declares the peer failed
  // and the give-up hook shuts the tx queue down, exactly like a
  // protection violation would.
  auto mp = test::small_machine_params(2);
  mp.fault.seed = base_seed();
  mp.fault.drop_rate = 1.0;
  sys::Machine machine(mp);
  const auto map = machine.addr_map();

  msg::ReliableChannel::Params cp;
  cp.retransmit.base_timeout = 5 * sim::kMicrosecond;
  cp.retransmit.give_up_after = 3;

  auto ep = machine.node(0).make_endpoint();
  msg::ReliableChannel ch(ep, map, 0, cp);
  unsigned give_ups = 0;
  ch.set_give_up([&](sim::NodeId /*peer*/) {
    ++give_ups;
    machine.node(0).niu().ctrl().shutdown_tx_queue(sys::Node::kTxUser0);
  });
  ch.start();

  machine.node(0).ap().run([](msg::ReliableChannel* c) -> sim::Co<void> {
    co_await c->send(1, test::pattern_bytes(32));
  }(&ch));

  test::drive(machine.kernel(), [&] { return ch.failed(1); });
  EXPECT_EQ(give_ups, 1u);
  EXPECT_TRUE(machine.node(0).niu().ctrl().txq(sys::Node::kTxUser0).shutdown);
  EXPECT_GE(ch.stats().retransmitted.value(), cp.retransmit.give_up_after);

  // Sends to a failed peer return immediately instead of blocking.
  bool returned = false;
  machine.node(0).ap().run(
      [](msg::ReliableChannel* c, bool* r) -> sim::Co<void> {
        co_await c->send(1, test::pattern_bytes(8));
        *r = true;
      }(&ch, &returned));
  test::drive(machine.kernel(), [&] { return returned; });

  // Every injected packet was dropped; the books still balance.
  test::expect_network_conserves(machine);
  const auto a = machine.network().audit();
  EXPECT_EQ(a.delivered, 0u);
  EXPECT_EQ(a.injected, a.dropped);
}

}  // namespace
}  // namespace sv
