// Golden-stats regression corpus (gem5-style result pinning): canonical
// machine-wide stats JSON for the paper's figure-3/figure-4 block
// transfers and the extended messaging / S-COMA / reliable-under-loss
// workloads, checked in under tests/golden/. Every run here uses the
// sequential kernel; parallel_equivalence_test then proves the partitioned
// kernel matches the sequential one, so together the two suites pin the
// parallel scheduler to these very bytes.
//
// On intentional behaviour changes regenerate the corpus with
//   SV_GOLDEN_WRITE=1 ./golden_test
// and commit the diff — reviewers see exactly which metrics moved.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sys/stats_dump.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

/// Compare `actual` with the corpus entry `name`, or rewrite the entry
/// when SV_GOLDEN_WRITE is set.
void check_golden(const std::string& name, const std::string& actual) {
  test::expect_golden(std::string(SV_GOLDEN_DIR) + "/" + name + ".json",
                      actual, true,
                      "If the change is intentional, regenerate with "
                      "SV_GOLDEN_WRITE=1 ./golden_test and commit the diff.");
}

/// Figure 3/4 block transfers: run one approach at one size on a 2-node
/// fat tree (svsim's xfer workload) and dump the machine stats.
std::string run_xfer(int approach, std::uint32_t bytes) {
  sys::Machine machine(test::small_machine_params(2));
  const app::XferWorkload w{approach, bytes, approach >= 4};
  EXPECT_TRUE(w.run(machine).ok)
      << "approach " << approach << " failed verification";
  std::ostringstream os;
  sys::dump_stats_json(machine, os);
  return os.str();
}

TEST(GoldenStats, Fig3LatencyApproach1) {
  check_golden("fig3_xfer_a1_4kb", run_xfer(1, 4096));
}

TEST(GoldenStats, Fig3LatencyApproach3) {
  check_golden("fig3_xfer_a3_4kb", run_xfer(3, 4096));
}

TEST(GoldenStats, Fig4BandwidthApproach3) {
  check_golden("fig4_xfer_a3_64kb", run_xfer(3, 65536));
}

TEST(GoldenStats, ExtMsgAllToAll) {
  test::RunSpec spec;
  spec.workload = test::Workload::kMsg;
  spec.nodes = 4;
  spec.count = 16;
  spec.bytes = 32;
  const auto res = test::run_and_dump_stats(spec);
  ASSERT_TRUE(res.completed);
  check_golden("ext_msg_4node", res.stats_json);
}

TEST(GoldenStats, ExtScomaContention) {
  test::RunSpec spec;
  spec.workload = test::Workload::kShm;
  spec.nodes = 4;
  spec.ops = 40;
  const auto res = test::run_and_dump_stats(spec);
  ASSERT_TRUE(res.completed);
  check_golden("ext_scoma_4node", res.stats_json);
}

TEST(GoldenStats, ExtReliableUnderLoss) {
  test::RunSpec spec;
  spec.workload = test::Workload::kReliable;
  spec.nodes = 4;
  spec.count = 12;
  spec.bytes = 48;
  spec.fault.seed = sim::Rng::kDefaultSeed;
  spec.fault.drop_rate = 0.05;
  spec.fault.corrupt_rate = 0.05;
  const auto res = test::run_and_dump_stats(spec);
  ASSERT_TRUE(res.completed);
  check_golden("ext_reliable_4node", res.stats_json);
}

TEST(GoldenStats, ExtReliableRestored) {
  // A checkpointed-and-restored run pinned to the same corpus bytes as
  // any uninterrupted run would produce (DESIGN.md §14): the machine is
  // snapshotted mid-flight, a second machine replays to the capture tick,
  // byte-verifies against the snapshot, then finishes — and its stats
  // must match this corpus entry forever after.
  test::RunSpec spec;
  spec.workload = test::Workload::kReliable;
  spec.nodes = 4;
  spec.count = 12;
  spec.bytes = 48;
  spec.fault.seed = sim::Rng::kDefaultSeed;
  spec.fault.drop_rate = 0.05;
  spec.fault.corrupt_rate = 0.05;
  spec.net = sys::Machine::NetKind::kFatTree;

  test::SteppableRun original(spec);
  const ckpt::Snapshot snap = original.capture_at(20 * sim::kMicrosecond);

  test::SteppableRun restored(spec);
  const ckpt::Snapshot replay = restored.capture_at(snap.tick);
  try {
    ckpt::Snapshot::verify(snap, replay);
  } catch (const ckpt::Error& e) {
    FAIL() << e.what();
  }
  restored.finish();
  check_golden("ext_reliable_restored", restored.stats_json());
}

// --- Application runtime (Ext-P): one entry per shipped app, each over
// the transport that stresses it best. The stats JSON includes the app.*
// transport counters, so both the machine and the runtime are pinned.

TEST(GoldenStats, ExtAppStencilMsg) {
  test::AppRunSpec spec;
  spec.app = test::AppKind::kStencil;
  spec.world.transport = app::TransportKind::kMsg;
  const auto res = test::run_and_dump_stats(spec);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.app.errors, 0u);
  check_golden("ext_app_stencil_msg", res.stats_json);
}

TEST(GoldenStats, ExtAppAllreduceShm) {
  test::AppRunSpec spec;
  spec.app = test::AppKind::kAllreduce;
  spec.world.transport = app::TransportKind::kShm;
  spec.allreduce.max_elems = 32;
  const auto res = test::run_and_dump_stats(spec);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.app.errors, 0u);
  check_golden("ext_app_allreduce_shm", res.stats_json);
}

TEST(GoldenStats, ExtAppKvReliable) {
  test::AppRunSpec spec;
  spec.app = test::AppKind::kKv;
  spec.world.transport = app::TransportKind::kReliable;
  spec.kv.requests = 16;
  const auto res = test::run_and_dump_stats(spec);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.app.errors, 0u);
  check_golden("ext_app_kv_reliable", res.stats_json);
}

}  // namespace
}  // namespace sv
