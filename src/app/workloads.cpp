#include "app/workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "shm/numa_region.hpp"
#include "shm/scoma_region.hpp"

namespace sv::app {

namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kDefaultScomaMb = 2;
constexpr mem::Addr kXferSrc = 0x0010'0000;
constexpr mem::Addr kXferDst = 0x0040'0000;
constexpr mem::Addr kXferScomaOffset = 0x8000;

std::uint64_t nodes_of(const sim::Config& cfg) {
  return cfg.get_u64_in("nodes", 2, 1, 1024);  // DESIGN.md §15
}

void need_two_nodes(const sim::Config& cfg, const std::string& what) {
  if (nodes_of(cfg) < 2) {
    throw std::invalid_argument(what + "; it needs nodes>=2");
  }
}

std::uint64_t payload_bytes(const sim::Config& cfg, const std::string& name,
                            std::uint64_t def, std::uint64_t max) {
  const std::uint64_t bytes = cfg.get_u64("bytes", def);
  if (bytes > max) {
    throw std::invalid_argument(name + " carries at most " +
                                std::to_string(max) +
                                " payload bytes per message; got bytes=" +
                                cfg.get_string("bytes"));
  }
  return bytes;
}

/// Block transfers and DMA move whole 32-byte cache lines.
std::uint64_t line_bytes(const sim::Config& cfg, std::uint64_t def,
                         std::uint64_t max) {
  const std::uint64_t bytes = cfg.get_u64_in("bytes", def, 32, max);
  if (bytes % 32 != 0) {
    throw std::invalid_argument("bad value '" + cfg.get_string("bytes") +
                                "' for bytes (expected a multiple of 32)");
  }
  return bytes;
}

/// Endpoints for nodes [run.endpoints.size(), upto).
void add_endpoints(WorkloadRun& run, sys::Machine& m, std::size_t upto) {
  for (auto n = static_cast<sim::NodeId>(run.endpoints.size()); n < upto;
       ++n) {
    run.endpoints.push_back(std::make_unique<msg::Endpoint>(
        m.node(n).ap(), m.node(n).endpoint_config()));
  }
}

sim::Co<void> msg_driver(msg::Endpoint* ep, msg::AddressMap map,
                         sim::NodeId self, std::size_t nodes, MsgWorkload w,
                         std::uint8_t* done) {
  const std::uint64_t slots =
      w.express ? sys::Node::kExpressSlots : sys::Node::kUserSlots;
  std::vector<std::byte> payload(w.express ? 0 : w.bytes);
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  while (received < w.count) {
    if (sent < w.count && sent - received < slots) {
      const auto dst =
          static_cast<sim::NodeId>((self + 1 + sent % (nodes - 1)) % nodes);
      if (w.express) {
        co_await ep->send_express(static_cast<std::uint8_t>(map.express(dst)),
                                  0, static_cast<std::uint32_t>(sent));
      } else {
        co_await ep->send(map.user0(dst), payload);
      }
      ++sent;
    } else {
      if (w.express) {
        (void)co_await ep->recv_express();
      } else {
        (void)co_await ep->recv();
      }
      ++received;
    }
  }
  *done = 1;
}

template <typename Region>
sim::Co<void> shm_driver(Region region, std::uint64_t ops,
                         std::uint64_t words, std::uint64_t seed,
                         std::uint8_t* done) {
  sim::Rng rng(seed);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const mem::Addr off = 0x1000 + rng.below(words) * 64;
    if (rng.chance(0.5)) {
      co_await region.template store<std::uint32_t>(
          off, static_cast<std::uint32_t>(i));
    } else {
      (void)co_await region.template load<std::uint32_t>(off);
    }
  }
  *done = 1;
}

sim::Co<void> ring_driver(msg::ReliableChannel* ch, sim::NodeId self,
                          std::size_t nodes, std::uint64_t count,
                          std::uint64_t bytes, std::uint8_t* done,
                          std::string* mismatch) {
  const auto right = static_cast<sim::NodeId>((self + 1) % nodes);
  const auto left = static_cast<sim::NodeId>((self + nodes - 1) % nodes);
  for (std::uint64_t i = 0; i < count; ++i) {
    co_await ch->send(right, RingWorkload::payload(self, i, bytes));
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::vector<std::byte> got = co_await ch->recv(left);
    if (mismatch->empty() && got != RingWorkload::payload(left, i, bytes)) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "node %u message %llu from node %u: payload mismatch "
                    "(%zu bytes)",
                    self, static_cast<unsigned long long>(i), left,
                    got.size());
      *mismatch = buf;
    }
  }
  *done = 1;
}

sim::Co<void> dma_sender(msg::Endpoint* ep, msg::AddressMap map,
                         std::uint32_t len, std::uint8_t* done) {
  co_await msg::dma_write(*ep, map, 0, 1, 0x100000, 0x200000, len,
                          msg::AddressMap::kUser0L, 1);
  *done = 1;
}

sim::Co<void> dma_receiver(msg::Endpoint* ep, std::uint8_t* done) {
  (void)co_await ep->recv();
  *done = 1;
}

}  // namespace

sys::Machine::Params machine_params(const sim::Config& cfg) {
  sys::Machine::Params p;
  p.nodes = nodes_of(cfg);
  p.radix = static_cast<unsigned>(cfg.get_u64_in("radix", 4, 2, 64));
  p.threads = static_cast<unsigned>(cfg.get_u64_in("threads", 0, 0, 64));
  p.net = static_cast<sys::Machine::NetKind>(cfg.get_choice(
      "net", p.threads > 0 ? "ideal" : "fattree", {"fattree", "ideal"}));
  // DRAM ends below the NUMA backing store at 256 MB.
  p.node.dram_size = cfg.get_u64_in("dram_mb", 16, 8, 256) * kMiB;
  p.node.scoma_size =
      cfg.get_u64_in("scoma_mb", kDefaultScomaMb, 1, 1024) * kMiB;
  p.node.enable_scoma = cfg.get_bool("scoma", true);
  p.fault = fault::Plan::from_config(cfg);
  return p;
}

msg::ReliableChannel::Params channel_params(const sim::Config& cfg) {
  msg::ReliableChannel::Params cp;
  cp.window = cfg.get_u64_in("window", 16, 1, 1024);
  cp.retransmit.base_timeout =
      cfg.get_u64_in("timeout_us", 50, 1, 1'000'000) * sim::kMicrosecond;
  cp.retransmit.give_up_after =
      static_cast<unsigned>(cfg.get_u64_in("give_up", 8, 0, 1000));
  return cp;
}

bool WorkloadRun::finished() const {
  return std::all_of(done.begin(), done.end(),
                     [](std::uint8_t f) { return f != 0; }) &&
         (world == nullptr || world->done());
}

std::size_t WorkloadRun::unacked() const {
  std::size_t n = 0;
  for (const auto& ch : channels) {
    n += ch->unacked();
  }
  return n;
}

std::string WorkloadRun::violation() const {
  for (const auto& m : mismatch) {
    if (!m.empty()) {
      return m;
    }
  }
  return app.errors == 0 ? "" : std::to_string(app.errors) + " app errors";
}

void WorkloadRun::add_stats(sim::StatRegistry& reg) const {
  if (world != nullptr) {
    world->add_stats(reg);
  }
}

MsgWorkload MsgWorkload::from_config(const sim::Config& cfg, bool express) {
  const std::string name = express ? "express" : "msg";
  need_two_nodes(cfg, name + " sends from every node to the others");
  MsgWorkload w;
  w.express = express;
  w.count = cfg.get_u64_in("count", w.count, 1, kAny);
  w.bytes = express ? cfg.get_u64("bytes", w.bytes)
                    : payload_bytes(cfg, name, w.bytes, niu::kBasicMaxData);
  return w;
}

std::unique_ptr<WorkloadRun> MsgWorkload::start(sys::Machine& m) const {
  auto run = std::make_unique<WorkloadRun>(m.size());
  add_endpoints(*run, m, m.size());
  for (sim::NodeId n = 0; n < m.size(); ++n) {
    m.node(n).ap().run(msg_driver(run->endpoints[n].get(), m.addr_map(), n,
                                  m.size(), *this, &run->done[n]));
  }
  return run;
}

ShmWorkload ShmWorkload::from_config(const sim::Config& cfg, bool scoma) {
  ShmWorkload w;
  w.scoma = scoma;
  w.ops = cfg.get_u64_in("ops", w.ops, 1, kAny);
  w.words = cfg.get_u64_in("words", w.words, 1, 4096);
  w.seed = cfg.get_u64("seed", w.seed);
  return w;
}

std::unique_ptr<WorkloadRun> ShmWorkload::start(sys::Machine& m) const {
  // One driver per node over the same shared words: the contention is
  // cross-node while every coroutine stays inside the domain that owns
  // its processor, so the run is bit-identical at every threads= value.
  auto run = std::make_unique<WorkloadRun>(m.size());
  for (sim::NodeId n = 0; n < m.size(); ++n) {
    cpu::Processor& ap = m.node(n).ap();
    const std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ull * (n + 1));
    ap.run(scoma ? shm_driver(shm::ScomaRegion(ap), ops, words, s,
                              &run->done[n])
                 : shm_driver(shm::NumaRegion(ap), ops, words, s,
                              &run->done[n]));
  }
  return run;
}

RingWorkload RingWorkload::from_config(const sim::Config& cfg) {
  RingWorkload w;
  w.count = cfg.get_u64_in("count", w.count, 1, kAny);
  w.bytes = payload_bytes(cfg, "reliable", w.bytes,
                          msg::ReliableChannel::kMaxPayload);
  w.channel = channel_params(cfg);
  return w;
}

std::vector<std::byte> RingWorkload::payload(sim::NodeId src,
                                             std::uint64_t i,
                                             std::uint64_t bytes) {
  std::vector<std::byte> p(bytes);
  for (std::size_t b = 0; b < p.size(); ++b) {
    p[b] = static_cast<std::byte>(src + i + b);
  }
  return p;
}

std::unique_ptr<WorkloadRun> RingWorkload::start(sys::Machine& m,
                                                 const GiveUp& give_up) const {
  auto run = std::make_unique<WorkloadRun>(m.size());
  run->mismatch.resize(m.size());
  for (sim::NodeId n = 0; n < m.size(); ++n) {
    add_endpoints(*run, m, n + 1);
    run->channels.push_back(std::make_unique<msg::ReliableChannel>(
        *run->endpoints[n], m.addr_map(), n, channel));
    if (give_up) {
      run->channels[n]->set_give_up(
          [give_up, n](sim::NodeId peer) { give_up(n, peer); });
    }
    run->channels[n]->start();
  }
  for (sim::NodeId n = 0; n < m.size(); ++n) {
    m.node(n).ap().run(ring_driver(run->channels[n].get(), n, m.size(),
                                   count, bytes, &run->done[n],
                                   &run->mismatch[n]));
  }
  return run;
}

DmaWorkload DmaWorkload::from_config(const sim::Config& cfg) {
  need_two_nodes(cfg, "dma writes from node 0 to node 1");
  DmaWorkload w;
  // The source (1 MB) and destination (2 MB) buffers must not overlap.
  w.bytes = line_bytes(cfg, w.bytes, kMiB);
  return w;
}

std::unique_ptr<WorkloadRun> DmaWorkload::start(sys::Machine& m) const {
  auto run = std::make_unique<WorkloadRun>(m.size());
  std::fill(run->done.begin() + 2, run->done.end(), 1);  // no driver
  add_endpoints(*run, m, 2);
  m.node(0).ap().run(dma_sender(run->endpoints[0].get(), m.addr_map(),
                                static_cast<std::uint32_t>(bytes),
                                &run->done[0]));
  m.node(1).ap().run(dma_receiver(run->endpoints[1].get(), &run->done[1]));
  return run;
}

XferWorkload XferWorkload::from_config(const sim::Config& cfg) {
  need_two_nodes(cfg, "xfer moves a block from node 0 to node 1");
  if (cfg.get_u64("threads", 0) > 0) {
    throw std::invalid_argument(
        "the xfer harness is sequential-only; rerun without threads=");
  }
  XferWorkload w;
  w.approach = static_cast<int>(cfg.get_u64_in("approach", w.approach, 1, 5));
  // Approaches 1-3 copy between two DRAM buffers that must not overlap;
  // 4-5 land in the S-COMA region past its first 32 KB.
  const std::uint64_t max =
      w.approach >= 4
          ? cfg.get_u64("scoma_mb", kDefaultScomaMb) * kMiB - kXferScomaOffset
          : kXferDst - kXferSrc;
  w.bytes = static_cast<std::uint32_t>(line_bytes(cfg, w.bytes, max));
  w.consume = cfg.get_bool("consume", w.approach >= 4);
  return w;
}

xfer::TransferResult XferWorkload::run(sys::Machine& m) const {
  xfer::BlockTransferHarness harness(m);
  xfer::TransferSpec spec;
  spec.src = kXferSrc;
  spec.dst = approach >= 4 ? niu::kScomaBase + kXferScomaOffset : kXferDst;
  spec.len = bytes;
  xfer::RunOptions opt;
  opt.consume = consume;
  return harness.run(approach, spec, opt);
}

AppWorkload AppWorkload::from_config(const sim::Config& cfg,
                                     const std::string& name) {
  AppWorkload w;
  if (name == "app.stencil") {
    w.app = AppKind::kStencil;
    auto& p = w.stencil;
    p.nx = cfg.get_u64_in("nx", p.nx, 1, 4096);
    p.ny = cfg.get_u64_in("ny", p.ny, 1, 4096);
    p.iters = cfg.get_u64_in("iters", p.iters, 1, kAny);
    p.point_cycles = cfg.get_u64("point_cycles", p.point_cycles);
  } else if (name == "app.allreduce") {
    w.app = AppKind::kAllreduce;
    auto& p = w.allreduce;
    p.min_elems = cfg.get_u64_in("min_elems", p.min_elems, 1, 1 << 20);
    p.max_elems =
        cfg.get_u64_in("max_elems", p.max_elems, p.min_elems, 1 << 20);
    p.iters = cfg.get_u64_in("iters", p.iters, 1, kAny);
  } else if (name == "app.kv") {
    w.app = AppKind::kKv;
    auto& p = w.kv;
    p.servers = cfg.get_u64_in("servers", p.servers, 1, 4096);
    p.requests = cfg.get_u64_in("requests", p.requests, 1, kAny);
    p.keys = cfg.get_u64_in("keys", p.keys, 1, kAny);
    p.value_bytes = cfg.get_u64_in("value_bytes", p.value_bytes, 0, 65536);
    p.seed = cfg.get_u64("seed", p.seed);
    p.op_cycles = cfg.get_u64("op_cycles", p.op_cycles);
  } else {
    throw std::invalid_argument("unknown app workload '" + name + "'");
  }
  w.world.nranks = cfg.get_u64_in("ranks", 0, 0, 4096);
  w.world.transport = static_cast<TransportKind>(
      cfg.get_choice("transport", "msg", {"msg", "shm", "reliable"}));
  w.world.shm_region = static_cast<ShmTransport::Region>(
      cfg.get_choice("app.shm", "numa", {"numa", "scoma"}));
  w.world.reliable = channel_params(cfg);
  return w;
}

std::unique_ptr<WorkloadRun> AppWorkload::start(sys::Machine& m) const {
  auto run = std::make_unique<WorkloadRun>(0);
  run->world = std::make_unique<World>(m, world);
  AppResult* out = &run->app;
  run->world->launch(app == AppKind::kStencil     ? make_stencil(stencil, out)
                     : app == AppKind::kAllreduce ? make_allreduce_sweep(
                                                        allreduce, out)
                                                  : make_kv(kv, out));
  return run;
}

}  // namespace sv::app
