// svsim: command-line driver for the simulated StarT-Voyager machine.
//
// Runs a parameterized workload and dumps machine-wide statistics —
// the quickest way to poke at configuration questions ("what does the bus
// occupancy look like at 8 nodes?", "how many bus retries does a racing
// S-COMA consumer cause?") without writing a program.
//
// Usage:
//   svsim <workload> [key=value ...]
//
// Every key is read before the machine is built; a key that nothing reads
// (a typo such as cuont=5) is an error, exit code 2.
//
// Workloads:
//   msg       all-to-all Basic messaging       (nodes, count, bytes<=88)
//   express   all-to-all Express messaging     (nodes, count)
//   xfer      block transfer                   (approach, bytes)
//   dma       DMA write                        (bytes)
//   scoma     random shared-memory traffic     (nodes, ops, words, seed)
//   numa      random NUMA traffic              (nodes, ops, words, seed)
//   reliable  ring traffic over ReliableChannel (nodes, count, bytes<=72,
//             window, timeout_us, give_up)
//
// Application runtime workloads (src/app/): real parallel programs run
// through the SMPI-style World/Comm API over a selectable transport.
// App keys: ranks=N (0 = one per node) transport=msg|shm|reliable
//   app.shm=numa|scoma; the reliable transport honors window/timeout_us/
//   give_up like the `reliable` workload.
//   app.stencil    Jacobi halo exchange    (nx, ny, iters, point_cycles)
//   app.allreduce  ring-allreduce sweep    (min_elems, max_elems, iters)
//   app.kv         key-value request/reply (servers, requests, keys,
//                  value_bytes, seed, op_cycles)
//
// Common keys: nodes=N net=fattree|ideal radix=K stats=0|1
//   stats_format=text|json deadline_ms=N trace=FILE trace_buf=N
//   trace_stream=FILE (stream Chrome JSON incrementally: bounded memory
//   for arbitrarily long traces, no ring overwrites in the file;
//   sequential machines only — a partitioned run has no global record
//   order until the merge)
//
// Parallel execution: threads=N partitions the machine into one event
// domain per node on N worker threads (results are bit-identical to
// threads=0). Partitioning needs the ideal network, so threads>0 defaults
// net=ideal; combining threads>0 with net=fattree is an error. The xfer
// workload drives the machine through a sequential-only harness and
// rejects threads>0.
//
// Fault injection (all workloads): fault.drop_rate=P fault.corrupt_rate=P
//   fault.link_down_rate=P fault.router_stall_rate=P fault.starve_rate=P
//   fault.rx_overflow_rate=P fault.seed=N (see fault::Plan::from_config).
//   Unreliable workloads will typically time out or hang under drops; the
//   `reliable` workload and reliable-transport app.* workloads recover.
//
// Checkpointing (DESIGN.md §14):
//   --checkpoint-at=TICK [--checkpoint-out=FILE]   snapshot at the first
//       epoch boundary at/after TICK (picoseconds), then keep running
//   --checkpoint-every=TICKS [--checkpoint-out=PREFIX]   periodic
//       snapshots PREFIX.<tick>.svck — the raw material for bisecting a
//       failing tick range (EXPERIMENTS.md Ext-Q)
//   --restore=FILE   rebuild the run from the snapshot's embedded config,
//       replay to its capture tick, byte-verify every component chunk
//       against the file, then continue to completion. Extra key=value
//       args are rejected: the snapshot is the configuration. The snapshot
//       records the fast-path mode (fastpath=on|off, see SV_NO_FASTPATH);
//       restoring it in the other mode is an error, exit code 2, because
//       pending bus-bypass events are keyed differently in each mode.
//   (key=value spellings ckpt.at / ckpt.every / ckpt.out also work.)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "app/apps.hpp"
#include "ckpt/capture.hpp"
#include "msg/dma.hpp"
#include "msg/reliable.hpp"
#include "shm/numa_region.hpp"
#include "shm/scoma_region.hpp"
#include "sim/config.hpp"
#include "sim/fastpath.hpp"
#include "sim/random.hpp"
#include "sys/stats_dump.hpp"
#include "trace/chrome_sink.hpp"
#include "xfer/approaches.hpp"

using namespace sv;

namespace {

sys::Machine::Params machine_params(const sim::Config& cfg) {
  sys::Machine::Params p;
  p.nodes = cfg.get_u64("nodes", 2);
  p.radix = static_cast<unsigned>(cfg.get_u64("radix", 4));
  p.threads = static_cast<unsigned>(cfg.get_u64("threads", 0));
  p.net = cfg.get_string("net", p.threads > 0 ? "ideal" : "fattree") ==
                  "ideal"
              ? sys::Machine::NetKind::kIdeal
              : sys::Machine::NetKind::kFatTree;
  p.node.dram_size = cfg.get_u64("dram_mb", 16) * 1024 * 1024;
  p.node.scoma_size = cfg.get_u64("scoma_mb", 2) * 1024 * 1024;
  p.node.enable_scoma = cfg.get_bool("scoma", true);
  p.fault = fault::Plan::from_config(cfg);
  return p;
}

/// The driver keys every workload shares, read before the machine is built.
struct DriverOptions {
  std::uint64_t deadline_ms = 2000;
  sim::Tick ckpt_at = 0;
  sim::Tick ckpt_every = 0;
  std::string ckpt_out;
  bool stats = false;
  bool stats_json = false;

  static DriverOptions from_config(const sim::Config& cfg) {
    DriverOptions o;
    o.deadline_ms = cfg.get_u64("deadline_ms", o.deadline_ms);
    o.ckpt_at = cfg.get_u64("ckpt.at", 0);
    o.ckpt_every = cfg.get_u64("ckpt.every", 0);
    o.ckpt_out = cfg.get_string("ckpt.out", "svsim.svck");
    o.stats = cfg.get_bool("stats", false);
    o.stats_json = cfg.get_string("stats_format", "text") == "json";
    return o;
  }
};

/// The workload-driver boilerplate every workload repeats, factored out: the
/// per-node completion flags (one per node so each is only ever written by
/// the domain that owns that node — the pattern that keeps every workload
/// valid under threads=N), the run-until-deadline loop with its timeout
/// diagnostic, elapsed-simulated-time reporting, and the stats dump —
/// which lives here so workloads with extra counters (the app runtime)
/// can append them while the owning objects are still alive.
class Harness {
 public:
  Harness(sys::Machine& machine, const sim::Config& cfg, DriverOptions opts)
      : machine_(machine),
        cfg_(cfg),
        opts_(std::move(opts)),
        done_(machine.size(), 0) {}

  [[nodiscard]] sys::Machine& machine() { return machine_; }
  [[nodiscard]] std::uint8_t* done_flag(sim::NodeId n) { return &done_[n]; }

  /// Drive the machine until every per-node done flag is set.
  bool drive() {
    return drive([this] {
      for (const auto f : done_) {
        if (f == 0) {
          return false;
        }
      }
      return true;
    });
  }

  /// App workloads register their World so its runtime state rides along
  /// in every capture; restore mode registers the loaded snapshot so the
  /// replay is byte-verified at the capture tick.
  void set_world(const app::World* world) { world_ = world; }
  void set_restore(const ckpt::Snapshot* snap) { restore_ = snap; }
  void set_workload(std::string name) { workload_ = std::move(name); }
  /// The fast-path mode line ("fastpath=on\n") snapshots carry; empty when
  /// replaying an older snapshot that has none.
  void set_mode_line(std::string line) { mode_line_ = std::move(line); }

  /// Drive the machine until `ready`; on deadline expiry prints the
  /// timeout diagnostic and returns false. Pauses at every scheduled
  /// checkpoint/verify tick on the way (epoch boundaries, so the pause
  /// points — and the snapshots — are identical for every threads=).
  bool drive(const std::function<bool()>& ready) {
    t0_ = machine_.now();
    const sim::Tick deadline =
        machine_.now() + opts_.deadline_ms * sim::kMillisecond;

    const sim::Tick every = opts_.ckpt_every;
    sim::Tick next_save = opts_.ckpt_at != 0 ? opts_.ckpt_at : every;
    sim::Tick verify_at = restore_ != nullptr ? restore_->tick : 0;

    while (true) {
      sim::Tick stop = 0;  // 0 = no pause pending
      if (next_save != 0) {
        stop = next_save;
      }
      if (verify_at != 0 && (stop == 0 || verify_at < stop)) {
        stop = verify_at;
      }
      if (stop == 0) {
        break;
      }
      machine_.run_epochs_until(
          [&] { return ready() || machine_.now() >= stop; }, deadline);
      if (machine_.now() < stop) {
        break;  // workload finished (or deadline hit) before the tick
      }
      if (verify_at != 0 && machine_.now() >= verify_at) {
        try {
          ckpt::Snapshot::verify(*restore_, capture());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "svsim: restore verify FAILED: %s\n",
                       e.what());
          return false;
        }
        std::printf("restore: replayed to tick %llu, %zu chunks verified "
                    "byte-identical\n",
                    static_cast<unsigned long long>(restore_->tick),
                    restore_->chunks().size());
        verify_at = 0;
      }
      if (next_save != 0 && machine_.now() >= next_save) {
        save_checkpoint();
        next_save = every != 0 ? machine_.now() + every : 0;
      }
    }

    if (!sys::run_until(machine_, ready, deadline)) {
      std::fprintf(stderr, "svsim: timed out\n");
      return false;
    }
    return true;
  }

  /// The run configuration a snapshot embeds: the workload name, the
  /// fast-path mode line, and every key=value except the ckpt.* directives
  /// themselves (a restored run must not re-checkpoint).
  [[nodiscard]] std::string config_text() const {
    std::string out = "workload=" + workload_ + "\n" + mode_line_;
    for (const auto& [key, value] : cfg_.all()) {
      if (key.rfind("ckpt.", 0) == 0) {
        continue;
      }
      out += key + "=" + value + "\n";
    }
    return out;
  }

  [[nodiscard]] ckpt::Snapshot capture() const {
    return ckpt::capture(machine_, config_text(), world_);
  }

  void save_checkpoint() const {
    std::string path = opts_.ckpt_out;
    if (opts_.ckpt_every != 0) {
      path += "." + std::to_string(machine_.now()) + ".svck";
    }
    const ckpt::Snapshot snap = capture();
    snap.save_file(path);
    std::printf("checkpoint: tick %llu, %zu chunks -> %s\n",
                static_cast<unsigned long long>(snap.tick),
                snap.chunks().size(), path.c_str());
  }

  /// Simulated microseconds between the last drive() start and now.
  [[nodiscard]] double elapsed_us() const {
    return static_cast<double>(machine_.now() - t0_) / 1e6;
  }

  /// Honor stats=0|1 / stats_format=text|json, letting the caller append
  /// extra counters to the registry first. Idempotent: the first call
  /// (typically from a workload that has extra counters to add) wins and
  /// the fallback call in main() becomes a no-op.
  void dump_stats(
      const std::function<void(sim::StatRegistry&)>& extra = nullptr) {
    if (stats_dumped_ || !opts_.stats) {
      return;
    }
    stats_dumped_ = true;
    auto reg = sys::collect_stats(machine_);
    if (extra) {
      extra(reg);
    }
    if (opts_.stats_json) {
      reg.dump_json(std::cout);
    } else {
      std::printf("\n--- machine statistics ---\n");
      reg.dump(std::cout);
    }
  }

 private:
  sys::Machine& machine_;
  const sim::Config& cfg_;
  DriverOptions opts_;
  std::vector<std::uint8_t> done_;
  sim::Tick t0_ = 0;
  bool stats_dumped_ = false;
  std::string workload_;
  std::string mode_line_;
  const app::World* world_ = nullptr;
  const ckpt::Snapshot* restore_ = nullptr;
};

/// A workload body, built by make_workload once every key it uses has been
/// read from the config.
using Workload = std::function<int(Harness&)>;

Workload msg_workload(const sim::Config& cfg, bool express) {
  const auto count = cfg.get_u64("count", 100);
  const auto bytes = cfg.get_u64("bytes", 32);
  return [=](Harness& h) {
    sys::Machine& machine = h.machine();
    const auto map = machine.addr_map();

    std::vector<std::unique_ptr<msg::Endpoint>> eps;
    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      eps.push_back(std::make_unique<msg::Endpoint>(
          machine.node(n).ap(), machine.node(n).endpoint_config()));
    }

    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      machine.node(n).ap().run(
          [](msg::Endpoint* ep, msg::AddressMap map, sim::NodeId self,
             std::size_t nodes, std::uint64_t count, std::uint64_t bytes,
             bool express_, std::uint8_t* d) -> sim::Co<void> {
            std::vector<std::byte> payload(bytes);
            for (std::uint64_t i = 0; i < count; ++i) {
              const auto dst =
                  static_cast<sim::NodeId>((self + 1 + i % (nodes - 1)) %
                                           nodes);
              if (express_) {
                co_await ep->send_express(
                    static_cast<std::uint8_t>(map.express(dst)), 0,
                    static_cast<std::uint32_t>(i));
              } else {
                co_await ep->send(map.user0(dst), payload);
              }
            }
            for (std::uint64_t i = 0; i < count; ++i) {
              if (express_) {
                (void)co_await ep->recv_express();
              } else {
                (void)co_await ep->recv();
              }
            }
            *d = 1;
          }(eps[n].get(), map, n, machine.size(), count, bytes, express,
            h.done_flag(n)));
    }
    if (!h.drive()) {
      return 1;
    }
    const double us = h.elapsed_us();
    const double total_bytes =
        static_cast<double>(machine.size() * count * (express ? 5 : bytes));
    std::printf("%s all-to-all: %zu nodes x %llu msgs in %.1f us "
                "(%.1f MB/s aggregate payload)\n",
                express ? "express" : "basic", machine.size(),
                static_cast<unsigned long long>(count), us,
                total_bytes / us);
    return 0;
  };
}

Workload xfer_workload(const sim::Config& cfg) {
  const int approach = static_cast<int>(cfg.get_u64("approach", 3));
  const auto bytes = static_cast<std::uint32_t>(cfg.get_u64("bytes", 16384));
  xfer::RunOptions opt;
  opt.consume = cfg.get_bool("consume", approach >= 4);
  return [=](Harness& h) {
    sys::Machine& machine = h.machine();
    if (machine.partitioned()) {
      std::fprintf(stderr,
                   "svsim: the xfer harness is sequential-only; rerun "
                   "without threads=\n");
      return 2;
    }
    xfer::BlockTransferHarness harness(machine);
    xfer::TransferSpec spec;
    spec.src = 0x0010'0000;
    spec.dst = approach >= 4 ? niu::kScomaBase + 0x8000 : 0x0040'0000;
    spec.len = bytes;
    const auto res = harness.run(approach, spec, opt);
    std::printf("approach %d, %u bytes: notify %.2f us (%.1f MB/s)%s, "
                "tx aP %.2f us / tx sP %.2f us / rx sP %.2f us, %s\n",
                approach, bytes,
                static_cast<double>(res.latency()) / 1e6,
                res.bandwidth_mbps(bytes),
                opt.consume
                    ? (", consumed " +
                       std::to_string(
                           static_cast<double>(res.consume_time - res.start) /
                           1e6) +
                       " us")
                          .c_str()
                    : "",
                static_cast<double>(res.sender_ap_busy) / 1e6,
                static_cast<double>(res.sender_sp_busy) / 1e6,
                static_cast<double>(res.receiver_sp_busy) / 1e6,
                res.ok ? "verified" : "VERIFY FAILED");
    return res.ok ? 0 : 1;
  };
}

Workload dma_workload(const sim::Config& cfg) {
  const auto bytes = static_cast<std::uint32_t>(cfg.get_u64("bytes", 65536));
  return [=](Harness& h) {
    sys::Machine& machine = h.machine();
    auto ep0 = machine.node(0).make_endpoint();
    auto ep1 = machine.node(1).make_endpoint();
    bool got = false;
    machine.node(0).ap().run(
        [](msg::Endpoint* ep, msg::AddressMap map,
           std::uint32_t n) -> sim::Co<void> {
          co_await msg::dma_write(*ep, map, 0, 1, 0x100000, 0x200000, n,
                                  msg::AddressMap::kUser0L, 1);
        }(&ep0, machine.addr_map(), bytes));
    machine.node(1).ap().run(
        [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
          (void)co_await ep->recv();
          *d = true;
        }(&ep1, &got));
    if (!h.drive([&] { return got; })) {
      return 1;
    }
    const double us = h.elapsed_us();
    std::printf("dma: %u bytes in %.1f us = %.1f MB/s\n", bytes, us,
                static_cast<double>(bytes) / us);
    return 0;
  };
}

msg::ReliableChannel::Params reliable_params(const sim::Config& cfg) {
  msg::ReliableChannel::Params cp;
  cp.window = cfg.get_u64("window", 16);
  cp.retransmit.base_timeout =
      cfg.get_u64("timeout_us", 50) * sim::kMicrosecond;
  cp.retransmit.give_up_after =
      static_cast<unsigned>(cfg.get_u64("give_up", 8));
  return cp;
}

Workload reliable_workload(const sim::Config& cfg) {
  const auto count = cfg.get_u64("count", 100);
  const auto bytes = cfg.get_u64("bytes", 64);
  const auto cp = reliable_params(cfg);
  return [=](Harness& h) {
    sys::Machine& machine = h.machine();
    const auto map = machine.addr_map();

    std::vector<std::unique_ptr<msg::Endpoint>> eps;
    std::vector<std::unique_ptr<msg::ReliableChannel>> chans;
    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      eps.push_back(std::make_unique<msg::Endpoint>(
          machine.node(n).ap(), machine.node(n).endpoint_config()));
      chans.push_back(
          std::make_unique<msg::ReliableChannel>(*eps[n], map, n, cp));
      chans[n]->set_give_up([&machine, n](sim::NodeId peer) {
        std::fprintf(stderr, "svsim: n%u gave up on peer n%u\n", n, peer);
        machine.node(n).niu().ctrl().shutdown_tx_queue(sys::Node::kTxUser0);
      });
      chans[n]->start();
    }

    // Ring traffic: every node streams `count` payloads to its right
    // neighbour and consumes `count` from its left.
    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      machine.node(n).ap().run(
          [](msg::ReliableChannel* ch, sim::NodeId self, std::size_t nodes,
             std::uint64_t count_, std::uint64_t bytes_,
             std::uint8_t* d) -> sim::Co<void> {
            const auto right = static_cast<sim::NodeId>((self + 1) % nodes);
            const auto left =
                static_cast<sim::NodeId>((self + nodes - 1) % nodes);
            for (std::uint64_t i = 0; i < count_; ++i) {
              std::vector<std::byte> payload(bytes_);
              for (std::size_t b = 0; b < payload.size(); ++b) {
                payload[b] = static_cast<std::byte>(self + i + b);
              }
              co_await ch->send(right, payload);
            }
            for (std::uint64_t i = 0; i < count_; ++i) {
              (void)co_await ch->recv(left);
            }
            *d = 1;
          }(chans[n].get(), n, machine.size(), count, bytes, h.done_flag(n)));
    }

    if (!h.drive()) {
      return 1;
    }
    const double us = h.elapsed_us();
    std::uint64_t retx = 0;
    std::uint64_t corrupt = 0;
    for (auto& ch : chans) {
      retx += ch->stats().retransmitted.value();
      corrupt += ch->stats().corrupt_rejected.value();
    }
    const auto audit = machine.network().audit();
    std::printf(
        "reliable ring: %zu nodes x %llu msgs x %llu B in %.1f us "
        "(%.1f MB/s payload), %llu retransmits, %llu crc rejects, "
        "%llu/%llu packets dropped\n",
        machine.size(), static_cast<unsigned long long>(count),
        static_cast<unsigned long long>(bytes), us,
        static_cast<double>(machine.size() * count * bytes) / us,
        static_cast<unsigned long long>(retx),
        static_cast<unsigned long long>(corrupt),
        static_cast<unsigned long long>(audit.dropped),
        static_cast<unsigned long long>(audit.injected));
    return 0;
  };
}

Workload shm_workload(const sim::Config& cfg, bool scoma) {
  const auto ops = cfg.get_u64("ops", 200);
  const auto words = cfg.get_u64("words", 16);
  const auto seed = cfg.get_u64("seed", 42);
  return [=](Harness& h) {
    sys::Machine& machine = h.machine();

    // One driver per node, each with its own seed-derived access stream over
    // the same shared words: the contention is cross-node (that is what the
    // coherence protocols exist for) while every coroutine stays inside the
    // domain that owns its processor, so the workload is valid — and
    // bit-identical — at every threads= value. `ops` counts per node.
    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      machine.node(n).ap().run(
          [](sys::Node* node, std::uint64_t ops_, std::uint64_t words_,
             std::uint64_t seed_, bool scoma_,
             std::uint8_t* d) -> sim::Co<void> {
            sim::Rng rng(seed_);
            shm::ScomaRegion sc(node->ap());
            shm::NumaRegion nm(node->ap());
            for (std::uint64_t i = 0; i < ops_; ++i) {
              const mem::Addr off = 0x1000 + rng.below(words_) * 64;
              if (scoma_) {
                if (rng.chance(0.5)) {
                  co_await sc.store<std::uint32_t>(
                      off, static_cast<std::uint32_t>(i));
                } else {
                  (void)co_await sc.load<std::uint32_t>(off);
                }
              } else {
                if (rng.chance(0.5)) {
                  co_await nm.store<std::uint32_t>(
                      off, static_cast<std::uint32_t>(i));
                } else {
                  (void)co_await nm.load<std::uint32_t>(off);
                }
              }
            }
            *d = 1;
          }(&machine.node(n), ops, words,
            seed ^ (0x9e3779b97f4a7c15ull * (n + 1)), scoma, h.done_flag(n)));
    }
    if (!h.drive()) {
      return 1;
    }
    std::printf("%s: %llu ops/node over %llu shared words in %.1f us\n",
                scoma ? "scoma" : "numa",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(words), h.elapsed_us());
    return 0;
  };
}

/// app.* workloads: run one of the shipped applications (src/app/apps.hpp)
/// through the SMPI-style runtime over the configured transport.
Workload app_workload(const sim::Config& cfg, const std::string& name) {
  app::World::Params wp;
  wp.nranks = cfg.get_u64("ranks", 0);
  const std::string transport = cfg.get_string("transport", "msg");
  if (transport == "msg") {
    wp.transport = app::TransportKind::kMsg;
  } else if (transport == "shm") {
    wp.transport = app::TransportKind::kShm;
  } else if (transport == "reliable") {
    wp.transport = app::TransportKind::kReliable;
  } else {
    throw std::runtime_error("unknown transport '" + transport + "'");
  }
  wp.shm_region = cfg.get_string("app.shm", "numa") == "scoma"
                      ? app::ShmTransport::Region::kScoma
                      : app::ShmTransport::Region::kNuma;
  wp.reliable = reliable_params(cfg);

  std::function<app::World::Program(app::AppResult*)> make_program;
  if (name == "app.stencil") {
    app::StencilParams p;
    p.nx = cfg.get_u64("nx", p.nx);
    p.ny = cfg.get_u64("ny", p.ny);
    p.iters = cfg.get_u64("iters", p.iters);
    p.point_cycles = cfg.get_u64("point_cycles", p.point_cycles);
    make_program = [p](app::AppResult* r) { return app::make_stencil(p, r); };
  } else if (name == "app.allreduce") {
    app::AllreduceParams p;
    p.min_elems = cfg.get_u64("min_elems", p.min_elems);
    p.max_elems = cfg.get_u64("max_elems", p.max_elems);
    p.iters = cfg.get_u64("iters", p.iters);
    make_program = [p](app::AppResult* r) {
      return app::make_allreduce_sweep(p, r);
    };
  } else if (name == "app.kv") {
    app::KvParams p;
    p.servers = cfg.get_u64("servers", p.servers);
    p.requests = cfg.get_u64("requests", p.requests);
    p.keys = cfg.get_u64("keys", p.keys);
    p.value_bytes = cfg.get_u64("value_bytes", p.value_bytes);
    p.seed = cfg.get_u64("seed", p.seed);
    p.op_cycles = cfg.get_u64("op_cycles", p.op_cycles);
    make_program = [p](app::AppResult* r) { return app::make_kv(p, r); };
  } else {
    throw std::runtime_error("unknown app workload '" + name + "'");
  }

  return [=](Harness& h) {
    sys::Machine& machine = h.machine();
    app::AppResult result;
    app::World world(machine, wp);
    world.launch(make_program(&result));
    h.set_world(&world);
    if (!h.drive([&] { return world.done(); })) {
      return 1;
    }
    std::printf("%s over %s: %zu ranks on %zu nodes, %llu ops, "
                "checksum %.10g, %llu errors in %.1f us\n",
                name.c_str(), world.transport(0).kind(), world.nranks(),
                machine.size(), static_cast<unsigned long long>(result.ops),
                result.checksum,
                static_cast<unsigned long long>(result.errors),
                h.elapsed_us());
    // Dump here (not from main) so the World's app.* counters are included.
    h.dump_stats([&](sim::StatRegistry& reg) { world.add_stats(reg); });
    return result.errors == 0 ? 0 : 1;
  };
}

/// Read every key the named workload uses and return its body. Throws for
/// an unknown workload or a rejected value.
Workload make_workload(const std::string& name, const sim::Config& cfg) {
  if (name == "msg" || name == "express") {
    return msg_workload(cfg, name == "express");
  }
  if (name == "xfer") {
    return xfer_workload(cfg);
  }
  if (name == "dma") {
    return dma_workload(cfg);
  }
  if (name == "scoma" || name == "numa") {
    return shm_workload(cfg, name == "scoma");
  }
  if (name == "reliable") {
    return reliable_workload(cfg);
  }
  if (name.rfind("app.", 0) == 0) {
    return app_workload(cfg, name);
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

}  // namespace

namespace {

/// Prefix of the snapshot config line that records the fast-path mode.
/// It is not a workload key: svsim strips it before parsing the rest.
constexpr const char* kModeKey = "fastpath=";

/// Translate the --checkpoint-*/--restore spellings into their ckpt.*
/// config keys; returns the restore path ("" = none).
std::string translate_ckpt_args(std::vector<std::string>& args) {
  std::string restore;
  for (auto& a : args) {
    for (const auto& [flag, key] :
         {std::pair<const char*, const char*>{"--checkpoint-at=", "ckpt.at="},
          {"--checkpoint-every=", "ckpt.every="},
          {"--checkpoint-out=", "ckpt.out="}}) {
      if (a.rfind(flag, 0) == 0) {
        a = key + a.substr(std::strlen(flag));
      }
    }
    if (a.rfind("--restore=", 0) == 0) {
      restore = a.substr(std::strlen("--restore="));
      a = "ckpt.restore=1";  // placeholder; stripped from snapshots anyway
    }
  }
  return restore;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: svsim <msg|express|xfer|dma|scoma|numa|reliable|"
                 "app.stencil|app.allreduce|app.kv> [key=value ...]\n"
                 "       svsim --restore=FILE\n");
    return 2;
  }
  std::string workload = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (workload.rfind("--", 0) == 0) {
    args.insert(args.begin(), workload);
    workload.clear();
  }
  const std::string restore_path = translate_ckpt_args(args);

  sim::Config cfg;
  ckpt::Snapshot restored;
  std::string snapshot_mode;  // the snapshot's fastpath= value, if any
  try {
    if (!restore_path.empty()) {
      // The snapshot is the configuration: workload and every key come
      // from its embedded config text, one key=value (or workload=) line
      // each. Anything else on the command line would silently fork the
      // replay from the original run, so extra args are rejected.
      for (const auto& a : args) {
        if (a != "ckpt.restore=1") {
          throw std::runtime_error("--restore takes no other arguments");
        }
      }
      restored = ckpt::Snapshot::load_file(restore_path);
      std::vector<std::string> lines;
      std::size_t pos = 0;
      while (pos < restored.config.size()) {
        const std::size_t nl = restored.config.find('\n', pos);
        const std::size_t end =
            nl == std::string::npos ? restored.config.size() : nl;
        const std::string line = restored.config.substr(pos, end - pos);
        if (line.rfind("workload=", 0) == 0) {
          workload = line.substr(std::strlen("workload="));
        } else if (line.rfind(kModeKey, 0) == 0) {
          snapshot_mode = line.substr(std::strlen(kModeKey));
        } else if (!line.empty()) {
          lines.push_back(line);
        }
        pos = end + 1;
      }
      cfg = sim::Config::from_args(lines);
      if (workload.empty()) {
        throw std::runtime_error("snapshot config names no workload");
      }
    } else {
      if (workload.empty()) {
        throw std::runtime_error("no workload given");
      }
      cfg = sim::Config::from_args(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svsim: %s\n", e.what());
    return 2;
  }
  // Pending bus-bypass completions are keyed differently in each mode, so
  // a snapshot replays only in the mode that captured it. Older snapshots
  // carry no mode line and replay as they always did.
  const std::string mode = sim::fastpath_default() ? "on" : "off";
  if (!snapshot_mode.empty() && snapshot_mode != mode) {
    std::fprintf(stderr,
                 "svsim: snapshot was captured with fastpath=%s but this "
                 "run has fastpath=%s (set SV_NO_FASTPATH to match)\n",
                 snapshot_mode.c_str(), mode.c_str());
    return 2;
  }

  std::unique_ptr<sys::Machine> machine_ptr;
  Workload body;
  DriverOptions opts;
  std::string trace_file;
  std::string trace_stream;
  std::uint64_t trace_buf = 0;
  try {
    const sys::Machine::Params params = machine_params(cfg);
    // Checked before construction, so the error path builds nothing.
    if ((workload == "msg" || workload == "express") && params.nodes < 2) {
      throw std::runtime_error(workload +
                               " sends from every node to the others; it "
                               "needs nodes>=2");
    }
    const std::uint64_t max_bytes =
        workload == "msg"        ? niu::kBasicMaxData
        : workload == "reliable" ? msg::ReliableChannel::kMaxPayload
                                 : 0;
    if (max_bytes != 0 && cfg.get_u64("bytes", 0) > max_bytes) {
      throw std::runtime_error(workload + " carries at most " +
                               std::to_string(max_bytes) +
                               " payload bytes per message; got bytes=" +
                               cfg.get_string("bytes", ""));
    }
    body = make_workload(workload, cfg);
    opts = DriverOptions::from_config(cfg);
    trace_file = cfg.get_string("trace", "");
    trace_stream = cfg.get_string("trace_stream", "");
    trace_buf = cfg.get_u64("trace_buf", trace::Tracer::kDefaultCapacity);
    // Every key svsim understands has now been read. A snapshot's keys
    // were all read when it was captured, so only the command line is
    // checked.
    if (const auto unread = cfg.unread_keys();
        restore_path.empty() && !unread.empty()) {
      throw std::runtime_error("unknown key '" + unread.front() + "'");
    }
    machine_ptr = std::make_unique<sys::Machine>(params);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svsim: %s\n", e.what());
    return 2;
  }
  sys::Machine& machine = *machine_ptr;

  if (!trace_file.empty() || !trace_stream.empty()) {
    machine.enable_tracing(trace_buf);
  }
  std::ofstream stream_os;
  std::unique_ptr<trace::ChromeStreamSink> stream_sink;
  if (!trace_stream.empty()) {
    if (machine.tracers().size() != 1) {
      std::fprintf(stderr,
                   "svsim: trace_stream requires a sequential machine "
                   "(threads=0); use trace= for partitioned runs\n");
      return 2;
    }
    stream_os.open(trace_stream);
    if (!stream_os) {
      std::fprintf(stderr, "svsim: cannot open %s\n", trace_stream.c_str());
      return 2;
    }
    stream_sink = std::make_unique<trace::ChromeStreamSink>(stream_os);
    machine.tracer()->set_sink(stream_sink.get());
  }

  Harness harness(machine, cfg, opts);
  harness.set_workload(workload);
  if (!restore_path.empty()) {
    harness.set_restore(&restored);
  }
  // A replay re-captures exactly the snapshot's config text, so it keeps
  // the snapshot's mode line, or its lack of one.
  if (restore_path.empty() || !snapshot_mode.empty()) {
    harness.set_mode_line(kModeKey + mode + "\n");
  }
  const int rc = body(harness);

  if (stream_sink) {
    stream_sink->finish(machine.now());
    machine.tracer()->set_sink(nullptr);
    if (!stream_os) {
      std::fprintf(stderr, "svsim: write failed for %s\n",
                   trace_stream.c_str());
      return 1;
    }
    std::printf("trace: %llu events streamed (%llu flows evicted) -> %s\n",
                static_cast<unsigned long long>(stream_sink->events_written()),
                static_cast<unsigned long long>(stream_sink->flows_evicted()),
                trace_stream.c_str());
  }
  if (!trace_file.empty()) {
    // Merge the per-domain tracers into one canonical timeline — for a
    // sequential machine that is a single-tracer merge, so the file is the
    // same either way.
    const auto tracers = machine.tracers();
    std::size_t events = 0;
    std::uint64_t dropped = 0;
    for (const auto* tr : tracers) {
      events += tr->size();
      dropped += tr->dropped();
    }
    try {
      trace::write_chrome_trace_file(
          tracers, trace_file, trace::ChromeWriteOptions{machine.now()});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "svsim: %s\n", e.what());
      return 1;
    }
    std::printf("trace: %zu events (%llu dropped) -> %s\n", events,
                static_cast<unsigned long long>(dropped),
                trace_file.c_str());
  }

  harness.dump_stats();
  return rc;
}
