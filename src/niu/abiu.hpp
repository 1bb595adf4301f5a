// aBIU: the aP-side bus interface unit (an FPGA in the real NIU).
//
// The aBIU sits on the aP memory bus in the second processor slot. It
//   - responds to the memory-mapped NIU windows (aSRAM, Express Tx/Rx,
//     pointer updates, system registers),
//   - watches every aP bus operation: for the NUMA window it forwards
//     operations to sP firmware (retrying loads until firmware supplies the
//     data); for the S-COMA region it checks clsSRAM state through a
//     configurable reaction table and retries / forwards accordingly,
//   - acts as CTRL's bus master on the aP bus (block operations, remote
//     command writes, coherence kills/flushes).
//
// "Reconfigurable hardware" is modelled as runtime-configurable tables
// (the reaction table, the NUMA policy) — the simulator analogue of
// reprogramming the FPGA.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/bus.hpp"
#include "mem/cls_sram.hpp"
#include "niu/ctrl.hpp"
#include "niu/regs.hpp"
#include "sim/coro.hpp"
#include "sim/stats.hpp"

namespace sv::niu {

/// Coarse bus-operation classes used to index the reaction tables.
enum class OpClass : unsigned {
  kLoad = 0,       // kRead / kReadSingle
  kStore = 1,      // kRWITM / kKill (write-ownership) / kWriteSingle
  kWriteback = 2,  // kWriteLine (cache eviction)
  kCount = 3,
};

[[nodiscard]] OpClass classify(mem::BusOp op);

/// What the aBIU does with a checked aP bus operation.
struct Reaction {
  bool retry = false;    // ARTRY the operation
  bool forward = false;  // enqueue it for sP firmware
};

/// An aP bus operation forwarded to firmware (over the aBIU-sBIU queue).
struct FwdOp {
  mem::BusOp op = mem::BusOp::kRead;
  mem::Addr addr = 0;
  std::uint32_t size = 0;
  std::uint32_t token = 0;  // identifies a pending retried load
  std::vector<std::byte> wdata;  // captured store data (absorbed writes)
};

struct ABiuStats {
  sim::Counter sram_reads;
  sim::Counter sram_writes;
  sim::Counter express_stores;
  sim::Counter express_loads;
  sim::Counter express_empty_loads;
  sim::Counter pointer_updates;
  sim::Counter numa_forwards;
  sim::Counter numa_retries;
  sim::Counter scoma_checks;
  sim::Counter scoma_forwards;
  sim::Counter scoma_retries;
  sim::Counter master_reads;
  sim::Counter master_writes;
  sim::Counter master_kills;
  sim::Counter supplied_loads;
};

class ABiu : public sim::SimObject, public mem::BusDevice, public ApBusPort {
 public:
  struct Params {
    mem::Addr numa_base = kNumaBase;
    mem::Addr numa_size = kNumaSize;
    bool ap_sysreg_access = false;  // aP may touch system registers
    sim::Cycles sram_read_latency = 3;
    sim::Cycles sram_write_latency = 1;
    sim::Cycles express_rx_latency = 4;
    sim::Cycles regop_latency = 2;
    sim::Cycles supplied_load_latency = 2;
  };

  ABiu(sim::Kernel& kernel, std::string name, Ctrl& ctrl, mem::MemBus& bus,
       Params params);

  // --- BusDevice --------------------------------------------------------------
  [[nodiscard]] std::string_view device_name() const override {
    return name();
  }
  mem::SnoopResult bus_snoop(const mem::BusRequest& req) override;
  void bus_read_data(const mem::BusRequest& req,
                     std::span<std::byte> out) override;
  void bus_write_data(const mem::BusRequest& req,
                      std::span<const std::byte> in) override;
  void bus_observe(const mem::BusRequest& req,
                   const mem::BusResult& res) override;
  // Fast-path contract: NIU-window snoops are a pure decode of static
  // configuration; NUMA and S-COMA snoops mutate forwarding state, so any
  // address they cover is unstable.
  [[nodiscard]] bool bus_snoop_stable(
      const mem::BusRequest& req) const override;

  // --- ApBusPort (CTRL master services) ----------------------------------------
  sim::Co<void> master_read(mem::Addr addr,
                            std::span<std::byte> out) override;
  sim::Co<void> master_write(mem::Addr addr,
                             std::span<const std::byte> in) override;
  sim::Co<void> master_kill(mem::Addr line) override;
  sim::Co<void> master_flush(mem::Addr line) override;
  void supply_load(std::uint32_t tag,
                   std::span<const std::byte> data) override;
  void cls_updated(mem::Addr addr, std::uint32_t len) override;

  // --- Firmware-side interfaces (reached through the sBIU) -----------------------
  sim::Channel<FwdOp>& numa_ops() { return numa_ops_; }
  sim::Channel<FwdOp>& scoma_ops() { return scoma_ops_; }

  /// Firmware signals that the S-COMA transaction for `line` is complete;
  /// further misses on that line may be forwarded again.
  void scoma_complete(mem::Addr line);

  // --- Hardware miss send (paper section 5, "Extending Default
  // Mechanisms": "the aBIU can be modified to send a message to the home
  // site directly, rather than composing a message to the queue serviced
  // by the local sP firmware"). The protocol installs a composer — the
  // simulator analogue of reprogramming the FPGA with the protocol's
  // message format — and the aBIU injects the request itself, cutting the
  // local sP out of the miss path entirely.
  using MissComposer = std::function<net::Packet(const FwdOp&)>;
  void set_hw_miss_send(MissComposer composer) {
    hw_miss_composer_ = std::move(composer);
  }
  [[nodiscard]] bool hw_miss_send_enabled() const {
    return static_cast<bool>(hw_miss_composer_);
  }

  // --- Write tracking for diff-ing hardware (paper section 5:
  // "StarT-Voyager's clsSRAM can be used to track modifications at the
  // cache-line granularity, thus reducing the amount of diff-ing
  // required"). Writes (and write-intent bus operations) to a tracked
  // range OR kClsDirty into the line's cls state; the kBlockDiffTx block
  // engine sends only dirty lines and clears the bits. The range must lie
  // inside the clsSRAM-covered region and is initialized to ReadWrite.
  static constexpr std::uint8_t kClsDirty = 0x8;
  void enable_write_tracking(mem::Addr base, mem::Addr size);

  /// Reconfigure the S-COMA reaction table entry for (op class, cls bits).
  void set_scoma_reaction(OpClass cls, std::uint8_t bits, Reaction r);
  [[nodiscard]] Reaction scoma_reaction(OpClass cls, std::uint8_t bits) const;

  /// Reconfigure the NUMA policy per op class.
  void set_numa_reaction(OpClass cls, Reaction r);

  // --- Reflective memory (paper section 5, "Extending Default Mechanisms") --
  /// Watch writes to [base, base+size) of ordinary DRAM. In firmware mode
  /// captured writes are pushed to reflect_ops() for the sP; in hardware
  /// mode the aBIU itself emits remote kWriteApDram commands to each peer
  /// (the all-hardware variant the paper sketches).
  struct ReflectPeer {
    sim::NodeId node;
    mem::Addr remote_base;
  };
  void add_reflect_range(mem::Addr base, mem::Addr size, bool hw_mode,
                         std::vector<ReflectPeer> peers);
  sim::Channel<FwdOp>& reflect_ops() { return reflect_ops_; }

  [[nodiscard]] ABiuStats& stats() { return stats_; }
  [[nodiscard]] const Params& params() const { return params_; }

  /// S-COMA default cls-bit encodings (the firmware protocol's choice).
  enum ClsState : std::uint8_t {
    kClsInvalid = 0,
    kClsReadOnly = 1,
    kClsReadWrite = 2,
    kClsPending = 3,
  };

 private:
  [[nodiscard]] bool in_niu_window(mem::Addr a) const;
  [[nodiscard]] bool in_numa(mem::Addr a) const;
  [[nodiscard]] bool in_tracked(mem::Addr a) const;
  mem::SnoopResult snoop_niu_window(const mem::BusRequest& req);
  mem::SnoopResult snoop_numa(const mem::BusRequest& req);
  mem::SnoopResult snoop_scoma(const mem::BusRequest& req);

  struct PendingLoad {
    std::uint32_t token = 0;
    bool ready = false;
    std::array<std::byte, mem::kLineBytes> data{};
  };

  Ctrl& ctrl_;
  mem::MemBus& bus_;
  int bus_id_;
  Params params_;

  struct ReflectRange {
    mem::Addr base = 0;
    mem::Addr size = 0;
    bool hw_mode = false;
    std::vector<ReflectPeer> peers;
  };

  sim::Co<void> hw_reflect(const ReflectRange& range, mem::Addr addr,
                           std::vector<std::byte> data);

  sim::Co<void> hw_miss_send(net::Packet pkt);

  sim::Channel<FwdOp> numa_ops_;
  sim::Channel<FwdOp> scoma_ops_;
  sim::Channel<FwdOp> reflect_ops_;
  std::vector<ReflectRange> reflect_ranges_;
  MissComposer hw_miss_composer_;
  struct TrackRange {
    mem::Addr base;
    mem::Addr size;
  };
  std::vector<TrackRange> track_ranges_;

  std::unordered_map<mem::Addr, PendingLoad> numa_pending_;  // by line
  std::unordered_set<mem::Addr> scoma_pending_;              // by line
  std::uint32_t next_token_ = 1;

  Reaction numa_table_[static_cast<unsigned>(OpClass::kCount)];
  Reaction scoma_table_[static_cast<unsigned>(OpClass::kCount)][16];

  ABiuStats stats_;
};

}  // namespace sv::niu
