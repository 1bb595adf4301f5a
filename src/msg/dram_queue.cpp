#include "msg/dram_queue.hpp"

namespace sv::msg {

sim::Co<std::optional<Message>> DramQueue::try_recv() {
  const auto producer = static_cast<std::uint32_t>(
      co_await ap_.uncached(mem::BusOp::kReadSingle, desc_.base, 4));
  if (producer == consumer_) {
    co_return std::nullopt;
  }

  const mem::Addr slot = desc_.slot_addr(consumer_);
  // Fresh data was written by the NIU: drop any stale cached lines first.
  for (mem::Addr a = mem::line_base(slot);
       a <= mem::line_base(slot + desc_.slot_bytes - 1);
       a += mem::kLineBytes) {
    co_await ap_.invalidate_line(a);
  }
  std::byte hdr[niu::kBasicHeaderBytes];
  co_await ap_.load(slot, hdr);
  const auto desc = niu::RxDescriptor::decode(hdr);

  Message msg;
  msg.src_node = desc.src_node;
  msg.logical = desc.logical;
  msg.data.resize(desc.length);
  if (desc.length > 0) {
    co_await ap_.load(slot + niu::kBasicHeaderBytes, msg.data);
  }

  ++consumer_;
  co_await ap_.uncached(mem::BusOp::kWriteSingle, desc_.base + 4, 4,
                        consumer_);
  co_return msg;
}

sim::Co<Message> DramQueue::recv() {
  for (;;) {
    auto msg = co_await try_recv();
    if (msg.has_value()) {
      co_return std::move(*msg);
    }
  }
}

}  // namespace sv::msg
