// Machine-level tests: construction across cluster sizes and network
// kinds, all-to-all traffic, and cross-subsystem interference (message
// passing and shared memory running simultaneously — the coexistence the
// paper's protected multi-queue design is for).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "msg/channel.hpp"
#include "shm/scoma_region.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

// gtest prints this parameter byte by byte into the test name, so the struct
// has no padding: `zero` fills the tail the enum would leave uninitialised,
// keeping the names the same from one build to the next.
struct MachineParam {
  std::size_t nodes;
  sys::Machine::NetKind net;
  std::uint32_t zero = 0;
};
static_assert(sizeof(MachineParam) ==
              sizeof(std::size_t) + sizeof(sys::Machine::NetKind) +
                  sizeof(std::uint32_t));

class MachineSweep : public ::testing::TestWithParam<MachineParam> {};

TEST_P(MachineSweep, AllToAllMessaging) {
  const auto param = GetParam();
  sys::Machine machine(test::small_machine_params(param.nodes, param.net));
  const auto map = machine.addr_map();

  std::vector<std::unique_ptr<msg::Endpoint>> eps;
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    eps.push_back(std::make_unique<msg::Endpoint>(
        machine.node(n).ap(), machine.node(n).endpoint_config()));
  }

  std::size_t done = 0;
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).ap().run(
        [](msg::Endpoint* ep, msg::AddressMap map, sim::NodeId self,
           std::size_t nodes, std::size_t* d) -> sim::Co<void> {
          // Send one message to every node (including self)...
          for (sim::NodeId dst = 0; dst < nodes; ++dst) {
            std::byte payload[8];
            const std::uint64_t v =
                (static_cast<std::uint64_t>(self) << 32) | dst;
            std::memcpy(payload, &v, 8);
            co_await ep->send(map.user0(dst), payload);
          }
          // ...and collect one from every node.
          std::vector<bool> seen(nodes, false);
          for (std::size_t i = 0; i < nodes; ++i) {
            msg::Message m = co_await ep->recv();
            std::uint64_t v = 0;
            std::memcpy(&v, m.data.data(), 8);
            EXPECT_EQ(v & 0xFFFFFFFF, self);
            EXPECT_EQ(v >> 32, m.src_node);
            EXPECT_FALSE(seen[m.src_node]);
            seen[m.src_node] = true;
          }
          ++*d;
        }(eps[n].get(), map, n, machine.size(), &done));
  }
  test::drive(machine.kernel(), [&] { return done == machine.size(); },
              500 * sim::kMillisecond);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MachineSweep,
    ::testing::Values(MachineParam{2, sys::Machine::NetKind::kFatTree},
                      MachineParam{3, sys::Machine::NetKind::kFatTree},
                      MachineParam{4, sys::Machine::NetKind::kFatTree},
                      MachineParam{8, sys::Machine::NetKind::kFatTree},
                      MachineParam{2, sys::Machine::NetKind::kIdeal},
                      MachineParam{4, sys::Machine::NetKind::kIdeal}));

TEST(MachineTest, MessagingAndSharedMemoryCoexist) {
  // Run a message ping-pong and S-COMA traffic simultaneously on the same
  // pair of nodes: the NIU's multiple protected queues keep them isolated.
  sys::Machine machine(test::small_machine_params(2));
  const auto map = machine.addr_map();
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  shm::ScomaRegion sc1(machine.node(1).ap());

  bool msg_done = false, shm_done = false;
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map, bool* d) -> sim::Co<void> {
        for (int i = 0; i < 20; ++i) {
          std::byte b[4] = {};
          co_await ep->send(map.user0(1), b);
          (void)co_await ep->recv();
        }
        *d = true;
      }(&ep0, map, &msg_done));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map, shm::ScomaRegion* r,
         bool* d) -> sim::Co<void> {
        for (int i = 0; i < 20; ++i) {
          msg::Message m = co_await ep->recv();
          // Interleave S-COMA writes to lines homed on node 0.
          co_await r->store<std::uint32_t>(0x40 * (i + 1),
                                           static_cast<std::uint32_t>(i));
          co_await ep->send(map.user0(0), m.data);
        }
        *d = true;
      }(&ep1, map, &sc1, &shm_done));
  test::drive(machine.kernel(), [&] { return msg_done && shm_done; },
              500 * sim::kMillisecond);

  // All S-COMA lines ended up owned by node 1.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(machine.node(1).niu().cls().peek(niu::kScomaBase +
                                               0x40 * (i + 1)),
              niu::ABiu::kClsReadWrite);
  }
}

TEST(MachineTest, DisabledEnginesLeaveNullAccessors) {
  auto p = test::small_machine_params(2);
  p.node.enable_dma = false;
  p.node.enable_numa = false;
  p.node.enable_scoma = false;
  p.node.enable_miss_service = false;
  p.node.enable_chunk_opener = false;
  sys::Machine machine(p);
  EXPECT_EQ(machine.node(0).dma(), nullptr);
  EXPECT_EQ(machine.node(0).numa(), nullptr);
  EXPECT_EQ(machine.node(0).scoma(), nullptr);
  EXPECT_EQ(machine.node(0).miss_service(), nullptr);
  EXPECT_EQ(machine.node(0).chunk_opener(), nullptr);

  // Plain messaging still works without any firmware engines.
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  bool got = false;
  const auto payload = test::pattern_bytes(8);  // outlives the lazy send
  machine.node(0).ap().run(ep0.send(machine.addr_map().user0(1), payload));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
        (void)co_await ep->recv();
        *d = true;
      }(&ep1, &got));
  test::drive(machine.kernel(), [&] { return got; });
}

TEST(MachineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    sys::Machine machine(test::small_machine_params(4));
    auto ep0 = machine.node(0).make_endpoint();
    auto ep3 = machine.node(3).make_endpoint();
    bool got = false;
    const auto payload = test::pattern_bytes(32);  // outlives the lazy send
    machine.node(0).ap().run(ep0.send(machine.addr_map().user0(3), payload));
    machine.node(3).ap().run(
        [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
          (void)co_await ep->recv();
          *d = true;
        }(&ep3, &got));
    test::drive(machine.kernel(), [&] { return got; });
    return machine.kernel().now();
  };
  const sim::Tick a = run_once();
  const sim::Tick b = run_once();
  EXPECT_EQ(a, b);
}

TEST(MachineTest, NetworkStatsAccumulate) {
  sys::Machine machine(test::small_machine_params(2));
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  bool got = false;
  const auto payload = test::pattern_bytes(8);  // outlives the lazy send
  machine.node(0).ap().run(ep0.send(machine.addr_map().user0(1), payload));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
        (void)co_await ep->recv();
        *d = true;
      }(&ep1, &got));
  test::drive(machine.kernel(), [&] { return got; });
  EXPECT_GE(machine.network().packets_delivered(), 1u);
  EXPECT_GT(machine.network().transit_ps().mean(), 0.0);
}

}  // namespace
}  // namespace sv
