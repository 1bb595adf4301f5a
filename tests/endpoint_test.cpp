// Layer-0 library tests: the full aP path (cached compose + flush, pointer
// window stores, shadow polling) for Basic, Express, TagOn and raw
// messages; firmware DMA; the Channel (MPI-lite) veneer.
#include <gtest/gtest.h>

#include <cstring>

#include "msg/channel.hpp"
#include "msg/dma.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

class EndpointTest : public ::testing::Test {
 protected:
  EndpointTest() : machine(test::small_machine_params(2)) {
    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      eps.push_back(std::make_unique<msg::Endpoint>(
          machine.node(n).ap(), machine.node(n).endpoint_config()));
    }
  }

  void drive_until(const std::function<bool()>& pred) {
    test::drive(machine.kernel(), pred);
  }

  sys::Machine machine;
  std::vector<std::unique_ptr<msg::Endpoint>> eps;
};

TEST_F(EndpointTest, BasicSendRecvRoundTrip) {
  const auto map = machine.addr_map();
  auto payload = test::pattern_bytes(48);
  bool got = false;

  machine.node(0).ap().run(eps[0]->send(map.user0(1), payload));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, const std::vector<std::byte>* want,
         bool* done) -> sim::Co<void> {
        msg::Message m = co_await ep->recv();
        EXPECT_EQ(m.src_node, 0);
        EXPECT_EQ(m.data, *want);
        *done = true;
      }(eps[1].get(), &payload, &got));
  drive_until([&] { return got; });
}

TEST_F(EndpointTest, ManyMessagesArriveInOrder) {
  const auto map = machine.addr_map();
  constexpr int kCount = 150;  // > queue depth: exercises flow control
  int received = 0;
  bool in_order = true;

  machine.node(0).ap().run(
      [](msg::Endpoint* ep, std::uint16_t vdest) -> sim::Co<void> {
        for (std::uint32_t i = 0; i < kCount; ++i) {
          std::byte buf[4];
          std::memcpy(buf, &i, 4);
          co_await ep->send(vdest, buf);
        }
      }(eps[0].get(), map.user0(1)));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, int* n, bool* ok) -> sim::Co<void> {
        for (std::uint32_t i = 0; i < kCount; ++i) {
          msg::Message m = co_await ep->recv();
          std::uint32_t seq = 0;
          std::memcpy(&seq, m.data.data(), 4);
          if (seq != i) {
            *ok = false;
          }
          ++*n;
        }
      }(eps[1].get(), &received, &in_order));
  drive_until([&] { return received == kCount; });
  EXPECT_TRUE(in_order);
}

TEST_F(EndpointTest, ConcurrentSendersShareOneEndpoint) {
  // Regression: Endpoint's send/recv are multi-step queue protocols
  // (compose, flush, producer bump, shadow poll). Two coroutines driving
  // the same endpoint concurrently used to interleave those steps and
  // clobber each other's slots; the per-queue gates must serialize them.
  // Back-to-back nonblocking sends from one node are exactly this shape.
  const auto map = machine.addr_map();
  constexpr int kSenders = 4;
  constexpr int kEach = 8;
  int sent = 0;
  int received = 0;
  std::vector<int> got(kSenders * kEach, 0);

  for (int s = 0; s < kSenders; ++s) {
    machine.node(0).ap().run(
        [](msg::Endpoint* ep, std::uint16_t vdest, int s_,
           int* done) -> sim::Co<void> {
          for (std::uint32_t i = 0; i < kEach; ++i) {
            const std::uint32_t id = s_ * kEach + i;
            auto payload = test::pattern_bytes(40, static_cast<std::uint8_t>(id));
            std::memcpy(payload.data(), &id, 4);
            co_await ep->send(vdest, payload);
          }
          ++*done;
        }(eps[0].get(), map.user0(1), s, &sent));
  }
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, std::vector<int>* g, int* n) -> sim::Co<void> {
        for (int i = 0; i < kSenders * kEach; ++i) {
          msg::Message m = co_await ep->recv();
          std::uint32_t id = 0;
          std::memcpy(&id, m.data.data(), 4);
          EXPECT_LT(id, g->size());
          if (id >= g->size()) {
            continue;
          }
          auto want = test::pattern_bytes(40, static_cast<std::uint8_t>(id));
          std::memcpy(want.data(), &id, 4);
          EXPECT_EQ(m.data, want) << "payload " << id << " corrupted";
          ++(*g)[id];
          ++*n;
        }
      }(eps[1].get(), &got, &received));

  drive_until([&] { return received == kSenders * kEach; });
  EXPECT_EQ(sent, kSenders);
  for (int i = 0; i < kSenders * kEach; ++i) {
    EXPECT_EQ(got[i], 1) << "message " << i;
  }
}

TEST_F(EndpointTest, ExpressSingleStoreRoundTrip) {
  const auto map = machine.addr_map();
  bool got = false;

  machine.node(0).ap().run(
      eps[0]->send_express(static_cast<std::uint8_t>(map.express(1)), 0x7E,
                           0xDEADBEEF));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* done) -> sim::Co<void> {
        msg::ExpressMessage m = co_await ep->recv_express();
        EXPECT_EQ(m.src_node, 0);
        EXPECT_EQ(m.extra, 0x7E);
        EXPECT_EQ(m.word, 0xDEADBEEFu);
        *done = true;
      }(eps[1].get(), &got));
  drive_until([&] { return got; });
}

TEST_F(EndpointTest, ExpressEmptyLoadReturnsNullopt) {
  bool checked = false;
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, bool* done) -> sim::Co<void> {
        auto m = co_await ep->try_recv_express();
        EXPECT_FALSE(m.has_value());
        *done = true;
      }(eps[0].get(), &checked));
  drive_until([&] { return checked; });
}

TEST_F(EndpointTest, ExpressIsFasterThanBasic) {
  const auto map = machine.addr_map();
  sim::Tick basic_done = 0, express_done = 0;
  bool got_b = false, got_e = false;

  // send() runs lazily, after this statement: the payload must outlive it.
  const auto payload = test::pattern_bytes(5);
  const sim::Tick t0 = machine.kernel().now();
  machine.node(0).ap().run(eps[0]->send(map.user0(1), payload));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* done) -> sim::Co<void> {
        (void)co_await ep->recv();
        *done = true;
      }(eps[1].get(), &got_b));
  drive_until([&] { return got_b; });
  basic_done = machine.kernel().now() - t0;

  const sim::Tick t1 = machine.kernel().now();
  machine.node(0).ap().run(
      eps[0]->send_express(static_cast<std::uint8_t>(map.express(1)), 1, 2));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* done) -> sim::Co<void> {
        (void)co_await ep->recv_express();
        *done = true;
      }(eps[1].get(), &got_e));
  drive_until([&] { return got_e; });
  express_done = machine.kernel().now() - t1;

  EXPECT_LT(express_done, basic_done)
      << "express=" << express_done << " basic=" << basic_done;
}

TEST_F(EndpointTest, TagOnCarriesStagedData) {
  const auto map = machine.addr_map();
  auto inline_data = test::pattern_bytes(8, 3);
  auto staged = test::pattern_bytes(niu::kTagOnLargeBytes, 4);
  bool got = false;

  machine.node(0).ap().run(
      [](msg::Endpoint* ep, std::uint16_t vdest,
         const std::vector<std::byte>* inl,
         const std::vector<std::byte>* stg) -> sim::Co<void> {
        co_await ep->stage(ep->staging_base(), *stg);
        co_await ep->send_tagon(vdest, *inl, ep->staging_base(),
                                /*large=*/true);
      }(eps[0].get(), map.user0(1), &inline_data, &staged));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, const std::vector<std::byte>* inl,
         const std::vector<std::byte>* stg, bool* done) -> sim::Co<void> {
        msg::Message m = co_await ep->recv();
        EXPECT_EQ(m.data.size(), inl->size() + stg->size());
        EXPECT_TRUE(std::equal(inl->begin(), inl->end(), m.data.begin()));
        EXPECT_TRUE(std::equal(stg->begin(), stg->end(),
                               m.data.begin() + inl->size()));
        *done = true;
      }(eps[1].get(), &inline_data, &staged, &got));
  drive_until([&] { return got; });
}

TEST_F(EndpointTest, RawSendBypassesTranslation) {
  auto payload = test::pattern_bytes(16, 5);
  bool got = false;
  machine.node(0).ap().run(
      eps[0]->send_raw(1, msg::AddressMap::kUser0L, payload));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* done) -> sim::Co<void> {
        msg::Message m = co_await ep->recv();
        EXPECT_EQ(m.logical, msg::AddressMap::kUser0L);
        *done = true;
      }(eps[1].get(), &got));
  drive_until([&] { return got; });
}

TEST_F(EndpointTest, SelfSendDelivers) {
  const auto map = machine.addr_map();
  bool got = false;
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, std::uint16_t self, bool* done) -> sim::Co<void> {
        co_await ep->send(self, test::pattern_bytes(8));
        (void)co_await ep->recv();
        *done = true;
      }(eps[0].get(), map.user0(0), &got));
  drive_until([&] { return got; });
}

TEST_F(EndpointTest, DmaWriteMovesDramAndNotifiesReceiver) {
  auto data = test::pattern_bytes(8192, 6);
  machine.node(0).dram().store().write(0x10000, data);

  bool got = false;
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map) -> sim::Co<void> {
        co_await msg::dma_write(*ep, map, 0, 1, 0x10000, 0x20000, 8192,
                                msg::AddressMap::kUser0L, 0x42);
      }(eps[0].get(), machine.addr_map()));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* done) -> sim::Co<void> {
        msg::Message m = co_await ep->recv();
        std::uint32_t tag = 0;
        std::memcpy(&tag, m.data.data(), 4);
        EXPECT_EQ(tag, 0x42u);
        *done = true;
      }(eps[1].get(), &got));
  drive_until([&] { return got; });

  std::vector<std::byte> dst(8192);
  machine.node(1).dram().store().read(0x20000, dst);
  EXPECT_EQ(dst, data);
}

TEST_F(EndpointTest, DmaReadPullsRemoteData) {
  auto data = test::pattern_bytes(2048, 7);
  machine.node(1).dram().store().write(0x30000, data);

  bool got = false;
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map, bool* done) -> sim::Co<void> {
        co_await msg::dma_read(*ep, map, 0, 1, 0x30000, 0x40000, 2048,
                               msg::AddressMap::kUser0L, 0x43);
        msg::Message m = co_await ep->recv();
        std::uint32_t tag = 0;
        std::memcpy(&tag, m.data.data(), 4);
        EXPECT_EQ(tag, 0x43u);
        *done = true;
      }(eps[0].get(), machine.addr_map(), &got));
  drive_until([&] { return got; });

  std::vector<std::byte> dst(2048);
  machine.node(0).dram().store().read(0x40000, dst);
  EXPECT_EQ(dst, data);
}

TEST_F(EndpointTest, ChannelFragmentsLargePayload) {
  auto big = test::pattern_bytes(1000, 8);
  bool got = false;

  machine.node(0).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map,
         const std::vector<std::byte>* data) -> sim::Co<void> {
        msg::Channel ch(*ep, map, 0);
        co_await ch.send(1, 77, *data);
      }(eps[0].get(), machine.addr_map(), &big));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map,
         const std::vector<std::byte>* want, bool* done) -> sim::Co<void> {
        msg::Channel ch(*ep, map, 1);
        auto data = co_await ch.recv(0, 77);
        EXPECT_EQ(data, *want);
        *done = true;
      }(eps[1].get(), machine.addr_map(), &big, &got));
  drive_until([&] { return got; });
}

TEST_F(EndpointTest, ChannelBarrierAndAllreduce) {
  int done = 0;
  for (sim::NodeId n = 0; n < 2; ++n) {
    machine.node(n).ap().run(
        [](msg::Endpoint* ep, msg::AddressMap map, sim::NodeId self,
           int* d) -> sim::Co<void> {
          msg::Channel ch(*ep, map, self);
          co_await ch.barrier();
          const std::uint64_t sum =
              co_await ch.allreduce_sum(self + 1);  // 1 + 2
          EXPECT_EQ(sum, 3u);
          co_await ch.barrier();
          ++*d;
        }(eps[n].get(), machine.addr_map(), n, &done));
  }
  drive_until([&] { return done == 2; });
}

}  // namespace
}  // namespace sv
