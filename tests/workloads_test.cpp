// The shared workload module (app/workloads.hpp): key parsing never
// aborts, whatever the values, and the msg/express send window lets any
// message count complete.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ckpt/scenario.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

using namespace app;
using sim::Config;

/// Per key: values its spec accepts, then (after "|") values it rejects.
const std::vector<std::vector<std::string>> kKeys = {
    {"nodes", "2", "4", "8", "16", "|", "0", "-1", "2000", "x", ""},
    {"threads", "0", "1", "2", "4", "|", "65", "-2", "two"},
    {"net", "ideal", "fattree", "|", "idael", "", "IDEAL"},
    {"radix", "2", "4", "8", "|", "1", "65"},
    {"dram_mb", "8", "16", "|", "0", "512"},
    {"scoma_mb", "1", "2", "|", "0", "2048"},
    {"scoma", "1", "0", "true", "|", "maybe"},
    {"fault.drop_rate", "0", "0.01", "1", "|", "2", "-0.5", "nan", "1e"},
    {"count", "1", "20", "100", "300", "|", "0", "5x", "-3"},
    {"bytes", "0", "32", "72", "4096", "|", "100000", "33", "abc",
     "99999999999999999999"},
    {"ops", "1", "60", "|", "0"},
    {"words", "1", "8", "|", "0", "5000"},
    {"seed", "0", "42", "0x10", "|", "-1", "s"},
    {"window", "1", "16", "|", "0", "2000"},
    {"timeout_us", "1", "50", "|", "0", "2000000"},
    {"give_up", "0", "8", "|", "1001"},
    {"approach", "1", "3", "5", "|", "0", "6"},
    {"consume", "0", "1", "|", "sometimes"},
    {"ranks", "0", "2", "8", "|", "5000"},
    {"transport", "msg", "shm", "reliable", "|", "tcp", ""},
    {"app.shm", "numa", "scoma", "|", "scmoa"},
    {"nx", "1", "16", "|", "0"},
    {"iters", "1", "4", "|", "0"},
    {"min_elems", "1", "64", "|", "0"},
    {"max_elems", "4", "64", "|", "2000000"},
    {"servers", "1", "2", "|", "0"},
    {"value_bytes", "0", "32", "|", "100000"},
    {"deadline_ms", "1", "20", "|", "0"},
};

/// Every spec that reads a sim::Config, svsim's and svexplore's.
const std::vector<void (*)(const Config&)> kSpecs = {
    [](const Config& c) { (void)machine_params(c); },
    [](const Config& c) { (void)MsgWorkload::from_config(c, false); },
    [](const Config& c) { (void)MsgWorkload::from_config(c, true); },
    [](const Config& c) { (void)ShmWorkload::from_config(c, true); },
    [](const Config& c) { (void)RingWorkload::from_config(c); },
    [](const Config& c) { (void)DmaWorkload::from_config(c); },
    [](const Config& c) { (void)XferWorkload::from_config(c); },
    [](const Config& c) { (void)AppWorkload::from_config(c, "app.stencil"); },
    [](const Config& c) { (void)AppWorkload::from_config(c, "app.allreduce"); },
    [](const Config& c) { (void)AppWorkload::from_config(c, "app.kv"); },
    [](const Config& c) { (void)ckpt::RingSpec::from_keys(c); },
};

// Random key=value sets, in range and out of range: every spec either
// parses them or throws std::exception, and never aborts. A set that
// machine_params accepts builds a machine or is refused by an exception
// (nodes <= 16 and threads <= 4 by construction of the good values).
TEST(WorkloadConfig, RandomKeySetsParseOrThrow) {
  sim::Rng rng(2024);
  std::uint64_t parsed = 0;
  std::uint64_t threw = 0;
  for (int round = 0; round < 400; ++round) {
    Config cfg;
    for (const auto& kv : kKeys) {
      const auto bar = std::find(kv.begin(), kv.end(), "|") - kv.begin();
      const double p = rng.uniform();
      if (p < 0.85 && p >= 0.5) {
        cfg.set(kv[0], kv[1 + rng.below(bar - 1)]);
      } else if (p >= 0.85) {
        cfg.set(kv[0], kv[bar + 1 + rng.below(kv.size() - bar - 1)]);
      }
    }
    for (const auto& spec : kSpecs) {
      try {
        spec(cfg);
        ++parsed;
      } catch (const std::exception&) {
        ++threw;
      }
    }
    try {
      sys::Machine machine(machine_params(cfg));
      EXPECT_LE(machine.size(), 16u);
    } catch (const std::exception&) {
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(threw, 0u);
}

// With more messages than Rx slots, every node receives before it sends
// again, so counts past the slot count complete; without the window every
// node sends first and the Rx queues overflow.
TEST(MsgWorkload, CountsBeyondTheRxSlotsComplete) {
  for (const bool express : {false, true}) {
    MsgWorkload w;
    w.express = express;
    w.count =
        (express ? sys::Node::kExpressSlots : sys::Node::kUserSlots) + 50;
    sys::Machine machine(test::small_machine_params(4));
    const auto run = w.start(machine);
    EXPECT_TRUE(sys::run_until(machine, [&] { return run->finished(); },
                               machine.now() + 50 * sim::kMillisecond))
        << (express ? "express" : "msg");
  }
}

}  // namespace
}  // namespace sv
