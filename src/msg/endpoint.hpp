// Layer-0 user library: message passing from application code.
//
// An Endpoint wraps one node's user transmit/receive queues the way the
// paper's library code does: message buffers are composed with cacheable
// stores into the memory-mapped aSRAM window (then flushed so the data
// reaches the SRAM), pointers are updated with single uncached stores whose
// *address* encodes the operation, and receive pointers are discovered by
// polling the CTRL shadow copies in aSRAM with uncached loads.
#pragma once

#include <bit>
#include <optional>
#include <vector>

#include "cpu/processor.hpp"
#include "niu/queues.hpp"
#include "niu/regs.hpp"
#include "sim/coro.hpp"

namespace sv::msg {

/// Machine-wide virtual-destination layout. The OS fills every node's
/// translation table so that section s, entry n targets node n's queue for
/// service s. Sections: 0 = user basic queue, 1 = DMA request queue,
/// 2 = second user queue, 3 = user express queue.
struct AddressMap {
  std::size_t nodes = 2;

  static constexpr net::QueueId kUser0L = 0x0100;
  static constexpr net::QueueId kUser1L = 0x0101;
  static constexpr net::QueueId kExpressL = 0x0102;

  /// Section stride: a power of two so sections can be selected with the
  /// NIU's AND/OR destination masks (the express queue ORs its section base
  /// into the 8-bit vdest carried in the store address).
  [[nodiscard]] std::size_t stride() const { return std::bit_ceil(nodes); }

  [[nodiscard]] std::uint16_t user0(sim::NodeId n) const {
    return static_cast<std::uint16_t>(n);
  }
  [[nodiscard]] std::uint16_t dma(sim::NodeId n) const {
    return static_cast<std::uint16_t>(stride() + n);
  }
  [[nodiscard]] std::uint16_t user1(sim::NodeId n) const {
    return static_cast<std::uint16_t>(2 * stride() + n);
  }
  /// Express messages pass only the node number in the store address; the
  /// queue's OR mask adds the section base.
  [[nodiscard]] std::uint16_t express(sim::NodeId n) const {
    return static_cast<std::uint16_t>(n);
  }
  [[nodiscard]] std::uint16_t express_section() const {
    return static_cast<std::uint16_t>(3 * stride());
  }
  [[nodiscard]] std::size_t table_entries() const { return 4 * stride(); }
};

/// Library-side mirror of one queue's geometry (SRAM offsets are
/// bank-relative; the aP reaches them through the aSRAM window).
struct QueueConfig {
  unsigned hwq = 0;
  std::uint32_t base = 0;
  std::uint16_t slots = 0;
  std::uint16_t slot_bytes = niu::kBasicSlotBytes;
};

/// A message as the library hands it to the application.
struct Message {
  std::uint16_t src_node = 0;
  net::QueueId logical = 0;
  std::vector<std::byte> data;
};

struct ExpressMessage {
  std::uint8_t src_node = 0;
  std::uint8_t extra = 0;     // the byte carried in the store address
  std::uint32_t word = 0;     // the 4 bytes carried on the data bus
};

/// Serializes one hardware queue's multi-step library protocol. Each send
/// (or receive) is several bus operations with suspension points between
/// them; two coroutines driving the same queue concurrently used to
/// interleave those steps and compose into the same slot. The gate makes
/// late arrivals queue behind the op in flight instead — back-to-back
/// nonblocking sends from the app runtime are the first real client.
/// Uncontended acquire/release never suspends and schedules nothing, so a
/// single-user endpoint behaves exactly as before (bit-identical traces).
class QueueGate {
 public:
  explicit QueueGate(sim::Kernel& k) : sem_(k, 1) {}
  [[nodiscard]] auto enter() { return sem_.acquire(); }
  void leave() { sem_.release(); }

 private:
  sim::Semaphore sem_;
};

class Endpoint {
 public:
  struct Config {
    QueueConfig tx;          // basic transmit queue
    QueueConfig rx;          // basic receive queue
    QueueConfig express_tx;  // express transmit queue
    QueueConfig express_rx;  // express receive queue
    QueueConfig raw_tx;      // trusted raw queue (slots == 0: unavailable)
    std::uint32_t staging_base = 0x8000;  // aSRAM staging for TagOn data
    /// Message-arrival interrupt line (paper section 4: "message arrival
    /// can raise an interrupt if its receive queue has been configured
    /// accordingly"). When wired, recv_interrupt() sleeps on it instead
    /// of polling the producer shadow.
    sim::Signal* arrival = nullptr;
  };

  Endpoint(cpu::Processor& ap, Config config);

  // --- Basic messages -------------------------------------------------------
  /// Compose and launch a Basic message (<= 88 bytes) to virtual
  /// destination `vdest` (translated by the NIU).
  sim::Co<void> send(std::uint16_t vdest, std::span<const std::byte> data);

  /// TagOn: a Basic message plus `large ? 80 : 48` bytes of aSRAM data at
  /// `sram_offset` appended by CTRL during launch.
  sim::Co<void> send_tagon(std::uint16_t vdest,
                           std::span<const std::byte> data,
                           std::uint32_t sram_offset, bool large);

  /// Raw (untranslated) send to an explicit node/queue. Requires the
  /// trusted raw queue; protection is bypassed (paper section 4).
  sim::Co<void> send_raw(sim::NodeId dest, net::QueueId queue,
                         std::span<const std::byte> data,
                         bool high_priority = false);

  /// Place data in the aSRAM staging area (for TagOn payloads).
  sim::Co<void> stage(std::uint32_t sram_offset,
                      std::span<const std::byte> data);
  [[nodiscard]] std::uint32_t staging_base() const {
    return config_.staging_base;
  }

  /// Non-blocking receive.
  sim::Co<std::optional<Message>> try_recv();
  /// Blocking receive (polls the producer shadow).
  sim::Co<Message> recv();
  /// Blocking receive that sleeps on the arrival interrupt instead of
  /// polling; `isr_cycles` models interrupt entry/exit cost. Requires
  /// Config::arrival to be wired.
  sim::Co<Message> recv_interrupt(sim::Cycles isr_cycles = 200);

  // --- Express messages ------------------------------------------------------
  /// One uncached store: 5-byte payload (1 address byte + 4 data bytes).
  sim::Co<void> send_express(std::uint8_t vdest, std::uint8_t extra,
                             std::uint32_t word);
  /// One uncached load; empty queue returns nullopt.
  sim::Co<std::optional<ExpressMessage>> try_recv_express();
  sim::Co<ExpressMessage> recv_express();

  [[nodiscard]] cpu::Processor& ap() { return ap_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// Wait until the basic tx queue has a free slot.
  sim::Co<void> wait_tx_space();
  /// Consume the pending message at rx_consumer_ and leave the rx gate.
  /// Precondition: the gate is held and rx_producer_seen_ is ahead.
  sim::Co<Message> read_rx_slot();

  cpu::Processor& ap_;
  Config config_;
  QueueGate tx_gate_;    // basic tx (send / send_tagon)
  QueueGate rx_gate_;    // basic rx (try_recv / recv)
  QueueGate extx_gate_;  // express tx
  QueueGate raw_gate_;   // raw tx
  std::uint16_t tx_producer_ = 0;
  std::uint16_t tx_consumer_seen_ = 0;
  std::uint16_t rx_consumer_ = 0;
  std::uint16_t rx_producer_seen_ = 0;
  std::uint16_t extx_producer_ = 0;
  std::uint16_t extx_consumer_seen_ = 0;
  std::uint16_t raw_producer_ = 0;
  std::uint16_t raw_consumer_seen_ = 0;
};

}  // namespace sv::msg
