// System-harness tests: the experiment helpers (run_until, run_programs,
// Table formatting) and machine-wide statistics collection.
#include <gtest/gtest.h>

#include <sstream>

#include "sys/stats_dump.hpp"
#include "tests/test_util.hpp"

namespace sv::sys {
namespace {

TEST(ExperimentTest, RunUntilHonorsDeadline) {
  sim::Kernel kernel;
  bool flag = false;
  kernel.schedule(100, [&] { flag = true; });
  EXPECT_FALSE(run_until(kernel, [&] { return flag; }, 50));
  EXPECT_TRUE(run_until(kernel, [&] { return flag; }, 200));
}

TEST(ExperimentTest, RunUntilReturnsFalseOnIdleKernel) {
  sim::Kernel kernel;
  bool never = false;
  EXPECT_FALSE(run_until(kernel, [&] { return never; }, 1000));
}

TEST(ExperimentTest, RunProgramsCollectsFinishTimes) {
  sim::Kernel kernel;
  std::vector<sim::Co<void>> programs;
  for (int i = 1; i <= 3; ++i) {
    programs.push_back([](sim::Kernel* k, sim::Tick d) -> sim::Co<void> {
      co_await sim::delay(*k, d);
    }(&kernel, i * 100));
  }
  std::vector<sim::Tick> times;
  EXPECT_TRUE(run_programs(kernel, std::move(programs), 10000, &times));
  EXPECT_EQ(times, (std::vector<sim::Tick>{100, 200, 300}));
}

TEST(ExperimentTest, RunProgramsTimesOut) {
  sim::Kernel kernel;
  sim::Signal never(kernel);
  std::vector<sim::Co<void>> programs;
  programs.push_back([](sim::Signal* s) -> sim::Co<void> {
    co_await *s;  // never pulsed
  }(&never));
  EXPECT_FALSE(run_programs(kernel, std::move(programs), 1000));
}

TEST(TableTest, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-name", "22222"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::fmt_us(1'500'000), "1.50");
  EXPECT_EQ(Table::fmt_pct(0.375), "37.5%");
  // 1000 bytes in 10 us = 100 MB/s.
  EXPECT_EQ(Table::fmt_mbps(1000.0, 10 * sim::kMicrosecond), "100.0");
  EXPECT_EQ(Table::fmt_mbps(1000.0, 0), "inf");
}

TEST(StatsDumpTest, CollectsPerNodeAndMachineCounters) {
  auto machine = sys::Machine(test::small_machine_params(2));
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  bool got = false;
  const auto payload = test::pattern_bytes(16);  // outlives the lazy send
  machine.node(0).ap().run(ep0.send(machine.addr_map().user0(1), payload));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
        (void)co_await ep->recv();
        *d = true;
      }(&ep1, &got));
  test::drive(machine.kernel(), [&] { return got; });

  const auto reg = collect_stats(machine);
  EXPECT_GE(reg.get("net.packets_delivered"), 1.0);
  EXPECT_GE(reg.get("n0.ctrl.msgs_launched"), 1.0);
  EXPECT_GE(reg.get("n1.ctrl.msgs_received"), 1.0);
  EXPECT_GT(reg.get("n0.bus.transactions"), 0.0);
  EXPECT_GT(reg.get("n0.aP.busy_us"), 0.0);
  EXPECT_TRUE(reg.contains("n1.scoma.grants"));
  EXPECT_GT(reg.get("sim.now_us"), 0.0);

  std::ostringstream oss;
  dump_stats(machine, oss);
  EXPECT_NE(oss.str().find("n0.ctrl.msgs_launched"), std::string::npos);
}

TEST(StatsDumpTest, DisabledEnginesOmitTheirKeys) {
  auto p = test::small_machine_params(2);
  p.node.enable_scoma = false;
  p.node.enable_numa = false;
  p.node.enable_miss_service = false;
  auto machine = sys::Machine(p);
  const auto reg = collect_stats(machine);
  EXPECT_FALSE(reg.contains("n0.scoma.grants"));
  EXPECT_FALSE(reg.contains("n0.numa.remote_loads"));
  EXPECT_FALSE(reg.contains("n0.miss_service.serviced"));
}

}  // namespace
}  // namespace sv::sys
