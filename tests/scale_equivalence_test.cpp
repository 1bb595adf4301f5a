// Node-count-invariance lockdown for the scale work (ISSUE 9 / ROADMAP 1).
//
// The 512-1024-node changes — the O(active-domains) epoch barrier, the
// sharded StatRegistry, lazy clsSRAM state and lazy per-node pages — are
// all required to be *pure optimizations*: at small node counts every
// observable byte (machine-wide stats JSON, canonical trace-span dump)
// must be identical to what the machine produced before those changes
// existed. This suite pins that contract with a golden corpus generated
// from the pre-change tree (tests/golden/scale_*.golden) and swept over
//   {msg, shm, reliable, app.stencil} x nodes {8,16,32}
//     x threads {0,1,2,4} x fastpath {on,off}.
// Every cell of the sweep must match the one golden entry for its
// (workload, nodes) pair — byte-identity across thread counts and fast
// path settings falls out of the same comparison.
//
// On intentional behaviour changes regenerate with
//   SV_GOLDEN_WRITE=1 ./scale_equivalence_test
// and commit the diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "sim/crc32.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

constexpr std::size_t kTraceCapacity = 1u << 20;

/// The pinned artifact: the full stats JSON followed by one trailer line
/// carrying the crc32 of the canonical trace-span dump. The span dump
/// itself is megabytes at 32 nodes, so the corpus stores its digest; the
/// stats stay as full text so drift is reviewable in the diff.
std::string artifact(const std::string& stats_json,
                     const std::string& span_dump) {
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "span_crc32=%08x\n",
                sim::crc32(std::as_bytes(
                    std::span(span_dump.data(), span_dump.size()))));
  return stats_json + trailer;
}

/// Compare with the golden entry for `name`. In regeneration runs only the
/// canonical cell (threads=0, fastpath on) writes; the other sweep cells
/// then verify against what it wrote.
void check_against_golden(const std::string& name, const std::string& actual,
                          const std::string& context) {
  test::expect_golden(
      std::string(SV_GOLDEN_DIR) + "/" + name + ".golden", actual,
      context == "canonical",
      "scale equivalence broken at " + context +
          ": the scale optimizations must be byte-invisible at small node "
          "counts. If the change is intentional, regenerate with "
          "SV_GOLDEN_WRITE=1 ./scale_equivalence_test and commit.");
}

struct SweepCell {
  unsigned threads;
  bool fastpath;
};

/// The swept cells. threads=0 is the classic sequential machine;
/// 1/2/4 partition into one domain per node. Fastpath off runs the
/// un-bypassed functional model — also required to be byte-identical.
const SweepCell kCells[] = {
    {0, true},  // canonical: writes the golden in regen runs
    {0, false}, {1, true}, {2, false}, {4, true}, {4, false},
};

std::string cell_name(const SweepCell& c) {
  std::ostringstream os;
  os << "threads=" << c.threads << " fastpath=" << c.fastpath;
  return os.str();
}

void sweep_machine_workload(test::Workload wl, const char* wl_name,
                            std::size_t nodes, std::uint64_t count,
                            std::uint64_t ops) {
  const std::string golden =
      std::string("scale_") + wl_name + "_" + std::to_string(nodes);
  for (const SweepCell& cell : kCells) {
    SCOPED_TRACE(golden + " " + cell_name(cell));
    test::RunSpec spec;
    spec.workload = wl;
    spec.nodes = nodes;
    spec.net = sys::Machine::NetKind::kIdeal;
    spec.threads = cell.threads;
    spec.fastpath = cell.fastpath;
    spec.count = count;
    spec.bytes = 32;
    spec.ops = ops;
    spec.trace_capacity = kTraceCapacity;
    const test::RunResult res = test::run_and_dump_stats(spec);
    ASSERT_TRUE(res.completed);
    ASSERT_EQ(res.trace_dropped, 0u)
        << "trace ring wrapped; the span digest would be incomplete";
    check_against_golden(golden, artifact(res.stats_json, res.span_dump),
                         &cell == &kCells[0] ? "canonical" : cell_name(cell));
  }
}

void sweep_stencil(std::size_t nodes) {
  const std::string golden = "scale_stencil_" + std::to_string(nodes);
  for (const SweepCell& cell : kCells) {
    SCOPED_TRACE(golden + " " + cell_name(cell));
    test::AppRunSpec spec;
    spec.app = test::AppKind::kStencil;
    spec.world.transport = app::TransportKind::kMsg;
    spec.nodes = nodes;
    spec.threads = cell.threads;
    spec.fastpath = cell.fastpath;
    spec.stencil.nx = 8;
    spec.stencil.ny = 2 * nodes;
    spec.stencil.iters = 2;
    // The stencil produces far more spans than the raw-mechanism
    // workloads; the sequential machine holds all of them in one ring.
    spec.trace_capacity = 4 * kTraceCapacity;
    const test::RunResult res = test::run_and_dump_stats(spec);
    ASSERT_TRUE(res.completed);
    ASSERT_EQ(res.trace_dropped, 0u);
    check_against_golden(golden, artifact(res.stats_json, res.span_dump),
                         &cell == &kCells[0] ? "canonical" : cell_name(cell));
  }
}

TEST(ScaleEquivalence, Msg8) {
  sweep_machine_workload(test::Workload::kMsg, "msg", 8, 4, 0);
}
TEST(ScaleEquivalence, Msg16) {
  sweep_machine_workload(test::Workload::kMsg, "msg", 16, 4, 0);
}
TEST(ScaleEquivalence, Msg32) {
  sweep_machine_workload(test::Workload::kMsg, "msg", 32, 3, 0);
}

TEST(ScaleEquivalence, Shm8) {
  sweep_machine_workload(test::Workload::kShm, "shm", 8, 0, 12);
}
TEST(ScaleEquivalence, Shm16) {
  sweep_machine_workload(test::Workload::kShm, "shm", 16, 0, 8);
}

TEST(ScaleEquivalence, Reliable8) {
  sweep_machine_workload(test::Workload::kReliable, "reliable", 8, 3, 0);
}
TEST(ScaleEquivalence, Reliable16) {
  sweep_machine_workload(test::Workload::kReliable, "reliable", 16, 2, 0);
}

TEST(ScaleEquivalence, Stencil8) { sweep_stencil(8); }
TEST(ScaleEquivalence, Stencil16) { sweep_stencil(16); }
TEST(ScaleEquivalence, Stencil32) { sweep_stencil(32); }

}  // namespace
}  // namespace sv
