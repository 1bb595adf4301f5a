#include "msg/endpoint.hpp"

#include <cstring>
#include <stdexcept>

namespace sv::msg {

namespace {

using niu::kAsramWindowOffset;
using niu::kExpressRxWindowOffset;
using niu::kExpressTxWindowOffset;
using niu::kNiuBase;
using niu::kPtrWindowOffset;

mem::Addr asram_addr(mem::Addr offset) {
  return kNiuBase + kAsramWindowOffset + offset;
}

/// Poll one of CTRL's queue-pointer shadow words in aSRAM (uncached).
sim::Co<std::uint64_t> load_shadow(cpu::Processor& ap, mem::Addr offset) {
  return ap.uncached(mem::BusOp::kReadSingle, asram_addr(offset), 4);
}

/// Pointer update: a single uncached store whose address encodes the op.
sim::Co<std::uint64_t> store_ptr(cpu::Processor& ap, niu::PtrKind kind,
                                 unsigned hwq, std::uint16_t value) {
  return ap.uncached(mem::BusOp::kWriteSingle,
                     kNiuBase + kPtrWindowOffset +
                         niu::ptr_window_addr(kind, hwq),
                     4, value);
}

}  // namespace

Endpoint::Endpoint(cpu::Processor& ap, Config config)
    : ap_(ap),
      config_(config),
      tx_gate_(ap.kernel()),
      rx_gate_(ap.kernel()),
      extx_gate_(ap.kernel()),
      raw_gate_(ap.kernel()) {}

sim::Co<void> Endpoint::wait_tx_space() {
  const auto& q = config_.tx;
  while (static_cast<std::uint16_t>(tx_producer_ - tx_consumer_seen_) >=
         q.slots) {
    tx_consumer_seen_ = static_cast<std::uint16_t>(
        co_await load_shadow(ap_, niu::tx_consumer_shadow(q.hwq)));
  }
}

sim::Co<void> Endpoint::send(std::uint16_t vdest,
                             std::span<const std::byte> data) {
  if (data.size() > niu::kBasicMaxData) {
    throw std::invalid_argument("Endpoint::send: message too large");
  }
  co_await tx_gate_.enter();
  co_await wait_tx_space();

  const auto& q = config_.tx;
  const std::uint32_t slot =
      q.base + static_cast<std::uint32_t>(tx_producer_ % q.slots) *
                   q.slot_bytes;

  niu::MsgDescriptor d;
  d.vdest = vdest;
  d.length = static_cast<std::uint8_t>(data.size());
  std::byte hdr[niu::kBasicHeaderBytes];
  d.encode(hdr);

  // Compose through the cache, then flush so the SRAM holds the message.
  co_await ap_.store(asram_addr(slot), hdr);
  if (!data.empty()) {
    co_await ap_.store(asram_addr(slot + niu::kBasicHeaderBytes), data);
  }
  co_await ap_.flush_range(asram_addr(slot),
                           niu::kBasicHeaderBytes + data.size());

  // Launch: a single uncached store to the pointer window.
  ++tx_producer_;
  co_await store_ptr(ap_, niu::PtrKind::kTxProducer, q.hwq, tx_producer_);
  tx_gate_.leave();
}

sim::Co<void> Endpoint::send_tagon(std::uint16_t vdest,
                                   std::span<const std::byte> data,
                                   std::uint32_t sram_offset, bool large) {
  const std::uint32_t tagon_bytes =
      large ? niu::kTagOnLargeBytes : niu::kTagOnSmallBytes;
  if (data.size() + tagon_bytes > net::kMaxPayloadBytes) {
    throw std::invalid_argument("Endpoint::send_tagon: payload too large");
  }
  co_await tx_gate_.enter();
  co_await wait_tx_space();

  const auto& q = config_.tx;
  const std::uint32_t slot =
      q.base + static_cast<std::uint32_t>(tx_producer_ % q.slots) *
                   q.slot_bytes;

  niu::MsgDescriptor d;
  d.vdest = vdest;
  d.length = static_cast<std::uint8_t>(data.size());
  d.flags = niu::MsgDescriptor::kFlagTagOn |
            (large ? niu::MsgDescriptor::kFlagTagOnLarge : 0);
  d.aux = sram_offset;
  std::byte hdr[niu::kBasicHeaderBytes];
  d.encode(hdr);

  co_await ap_.store(asram_addr(slot), hdr);
  if (!data.empty()) {
    co_await ap_.store(asram_addr(slot + niu::kBasicHeaderBytes), data);
  }
  co_await ap_.flush_range(asram_addr(slot),
                           niu::kBasicHeaderBytes + data.size());

  ++tx_producer_;
  co_await store_ptr(ap_, niu::PtrKind::kTxProducer, q.hwq, tx_producer_);
  tx_gate_.leave();
}

sim::Co<void> Endpoint::send_raw(sim::NodeId dest, net::QueueId queue,
                                 std::span<const std::byte> data,
                                 bool high_priority) {
  const auto& q = config_.raw_tx;
  if (q.slots == 0) {
    throw std::logic_error("Endpoint::send_raw: no raw queue configured");
  }
  if (data.size() > niu::kBasicMaxData) {
    throw std::invalid_argument("Endpoint::send_raw: message too large");
  }
  co_await raw_gate_.enter();
  while (static_cast<std::uint16_t>(raw_producer_ - raw_consumer_seen_) >=
         q.slots) {
    raw_consumer_seen_ = static_cast<std::uint16_t>(
        co_await load_shadow(ap_, niu::tx_consumer_shadow(q.hwq)));
  }

  const std::uint32_t slot =
      q.base + static_cast<std::uint32_t>(raw_producer_ % q.slots) *
                   q.slot_bytes;
  niu::MsgDescriptor d;
  d.vdest = static_cast<std::uint16_t>(dest);
  d.length = static_cast<std::uint8_t>(data.size());
  d.flags = niu::MsgDescriptor::kFlagRaw |
            (high_priority ? niu::MsgDescriptor::kFlagHighPriority : 0);
  d.aux = queue;
  std::byte hdr[niu::kBasicHeaderBytes];
  d.encode(hdr);

  co_await ap_.store(asram_addr(slot), hdr);
  if (!data.empty()) {
    co_await ap_.store(asram_addr(slot + niu::kBasicHeaderBytes), data);
  }
  co_await ap_.flush_range(asram_addr(slot),
                           niu::kBasicHeaderBytes + data.size());

  ++raw_producer_;
  co_await store_ptr(ap_, niu::PtrKind::kTxProducer, q.hwq, raw_producer_);
  raw_gate_.leave();
}

sim::Co<void> Endpoint::stage(std::uint32_t sram_offset,
                              std::span<const std::byte> data) {
  co_await ap_.store(asram_addr(sram_offset), data);
  co_await ap_.flush_range(asram_addr(sram_offset), data.size());
}

sim::Co<std::optional<Message>> Endpoint::try_recv() {
  co_await rx_gate_.enter();
  if (rx_consumer_ == rx_producer_seen_) {
    rx_producer_seen_ = static_cast<std::uint16_t>(
        co_await load_shadow(ap_, niu::rx_producer_shadow(config_.rx.hwq)));
  }
  if (rx_consumer_ == rx_producer_seen_) {
    rx_gate_.leave();
    co_return std::nullopt;
  }
  co_return co_await read_rx_slot();
}

sim::Co<Message> Endpoint::recv() {
  // try_recv() inlined: an empty poll is one uncached load, with no
  // coroutine frame of its own.
  for (;;) {
    co_await rx_gate_.enter();
    if (rx_consumer_ == rx_producer_seen_) {
      rx_producer_seen_ = static_cast<std::uint16_t>(co_await load_shadow(
          ap_, niu::rx_producer_shadow(config_.rx.hwq)));
    }
    if (rx_consumer_ != rx_producer_seen_) {
      co_return co_await read_rx_slot();
    }
    rx_gate_.leave();
  }
}

sim::Co<Message> Endpoint::read_rx_slot() {
  const auto& q = config_.rx;
  const std::uint32_t slot =
      q.base + static_cast<std::uint32_t>(rx_consumer_ % q.slots) *
                   q.slot_bytes;
  // The slot was last read a full queue-wrap ago: discard stale cache lines
  // before reading the fresh message.
  const mem::Addr first = mem::line_base(asram_addr(slot));
  const mem::Addr last =
      mem::line_base(asram_addr(slot) + q.slot_bytes - 1);
  for (mem::Addr a = first; a <= last; a += mem::kLineBytes) {
    co_await ap_.invalidate_line(a);
  }

  std::byte hdr[niu::kBasicHeaderBytes];
  co_await ap_.load(asram_addr(slot), hdr);
  const auto desc = niu::RxDescriptor::decode(hdr);

  Message msg;
  msg.src_node = desc.src_node;
  msg.logical = desc.logical;
  msg.data.resize(desc.length);
  if (desc.length > 0) {
    co_await ap_.load(asram_addr(slot + niu::kBasicHeaderBytes), msg.data);
  }

  ++rx_consumer_;
  co_await store_ptr(ap_, niu::PtrKind::kRxConsumer, q.hwq, rx_consumer_);
  rx_gate_.leave();
  co_return msg;
}

sim::Co<Message> Endpoint::recv_interrupt(sim::Cycles isr_cycles) {
  if (config_.arrival == nullptr) {
    throw std::logic_error(
        "Endpoint::recv_interrupt: no arrival interrupt wired");
  }
  for (;;) {
    auto msg = co_await try_recv();
    if (msg.has_value()) {
      co_return std::move(*msg);
    }
    // Sleep until the NIU signals an arrival, then pay interrupt cost.
    co_await *config_.arrival;
    co_await ap_.work(isr_cycles);
  }
}

sim::Co<void> Endpoint::send_express(std::uint8_t vdest, std::uint8_t extra,
                                     std::uint32_t word) {
  const auto& q = config_.express_tx;
  co_await extx_gate_.enter();
  while (static_cast<std::uint16_t>(extx_producer_ - extx_consumer_seen_) >=
         q.slots) {
    extx_consumer_seen_ = static_cast<std::uint16_t>(
        co_await load_shadow(ap_, niu::tx_consumer_shadow(q.hwq)));
  }
  ++extx_producer_;
  co_await ap_.uncached(mem::BusOp::kWriteSingle,
                        kNiuBase + kExpressTxWindowOffset +
                            niu::express_tx_addr(q.hwq, vdest, extra),
                        4, word);
  extx_gate_.leave();
}

sim::Co<std::optional<ExpressMessage>> Endpoint::try_recv_express() {
  const auto& q = config_.express_rx;
  const std::uint64_t entry = co_await ap_.uncached(
      mem::BusOp::kReadSingle,
      kNiuBase + kExpressRxWindowOffset + q.hwq * niu::kExpressRxStride, 8);
  if (entry == ~std::uint64_t{0}) {
    co_return std::nullopt;
  }
  std::byte bytes[8];
  std::memcpy(bytes, &entry, 8);
  ExpressMessage msg;
  msg.src_node = static_cast<std::uint8_t>(bytes[1]);
  msg.extra = static_cast<std::uint8_t>(bytes[2]);
  std::memcpy(&msg.word, bytes + 4, 4);
  co_return msg;
}

sim::Co<ExpressMessage> Endpoint::recv_express() {
  for (;;) {
    auto msg = co_await try_recv_express();
    if (msg.has_value()) {
      co_return *msg;
    }
  }
}

}  // namespace sv::msg
