#include "cpu/processor.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "ckpt/stats_io.hpp"

namespace sv::cpu {

Processor::Processor(sim::Kernel& kernel, std::string name, mem::MemBus& bus,
                     mem::SnoopingCache* cache, Params params)
    : sim::SimObject(kernel, std::move(name)),
      params_(params),
      bus_(bus),
      cache_(cache),
      bus_id_(bus.attach(this)),
      mutex_(kernel, 1) {}

void Processor::trace_busy(const char* what, sim::Tick start, sim::Tick end) {
  trace::Tracer* tr = kernel_.tracer();
  if (tr == nullptr || !tr->enabled() || end <= start) {
    return;
  }
  if (trace_track_ == trace::kNoTrack) {
    trace_track_ = tr->track_for(name(), "cpu");
  }
  tr->span(trace_track_, what, start, end);
}

sim::Co<void> Processor::work(sim::Cycles c) {
  const sim::Tick dur = params_.clock.to_ticks(c);
  busy_.add_busy(dur);
  trace_busy("work", now(), now() + dur);
  co_await sim::delay(kernel_, dur);
}

sim::Co<void> Processor::cached(mem::Addr a, std::byte* rdata,
                                const std::byte* wdata, std::size_t size) {
  // Reserve the work-phase key plus one key per cache chunk up front, in
  // one block: the reference schedule the recorded digests depend on.
  const sim::Tick t0 = now();
  const sim::Tick work_ticks = params_.clock.to_ticks(params_.op_overhead);
  const std::uint64_t s0 =
      kernel_.reserve_seqs(1 + mem::SnoopingCache::chunk_count(a, size));
  busy_.add_busy(work_ticks);
  trace_busy("work", t0, t0 + work_ticks);
  co_await sim::seq_delay(kernel_, t0 + work_ticks, s0);
  if (rdata != nullptr) {
    co_await cache_->read(a, std::span(rdata, size), s0 + 1);
  } else {
    co_await cache_->write(a, std::span(wdata, size), s0 + 1);
  }
  ops_.inc();
  busy_.add_busy(now() - t0 - work_ticks);
  trace_busy(rdata != nullptr ? "load" : "store", t0 + work_ticks, now());
}

sim::Co<std::uint64_t> Processor::uncached(mem::BusOp op, mem::Addr a,
                                           std::uint32_t n,
                                           std::uint64_t value) {
  assert(n > 0 && a % mem::kBeatBytes + n <= mem::kBeatBytes);
  const bool read = op == mem::BusOp::kReadSingle;
  const sim::Tick t0 = now();
  const sim::Tick work_ticks = params_.clock.to_ticks(params_.op_overhead);
  // The issue-overhead charge is folded into the transaction as a lead-in
  // (req.lead_ticks) instead of a separate work() delay: the slow path
  // replays it event-for-event, and the fast path completes the whole op
  // — work, arbitration, data tenure — in a single kernel event
  // (DESIGN.md §12). Busy/trace accounting stays here, at the same
  // dispatch the old work() call charged it.
  busy_.add_busy(work_ticks);
  trace_busy("work", t0, t0 + work_ticks);
  mem::BusRequest req;
  req.op = op;
  req.addr = a;
  req.size = n;
  // `value` lives in this frame, so the bus may use it until completion.
  auto* beat = reinterpret_cast<std::byte*>(&value);
  req.rdata = read ? beat : nullptr;
  req.wdata = read ? nullptr : beat;
  req.from_ap = true;
  req.lead_ticks = work_ticks;
  co_await bus_.transact_retry(bus_id_, req);
  ops_.inc();
  busy_.add_busy(now() - t0 - work_ticks);
  trace_busy(read ? "load.u" : "store.u", t0 + work_ticks, now());
  co_return value;
}

namespace {
/// Bytes of [a, a + left) that fit in the 8-byte beat containing `a`.
std::uint32_t beat_bytes(mem::Addr a, std::size_t left) {
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(left, mem::kBeatBytes - a % mem::kBeatBytes));
}
}  // namespace

sim::Co<void> Processor::load_uncached(mem::Addr a,
                                       std::span<std::byte> out) {
  for (std::size_t done = 0; done < out.size();) {
    const std::uint32_t n = beat_bytes(a + done, out.size() - done);
    const std::uint64_t v =
        co_await uncached(mem::BusOp::kReadSingle, a + done, n);
    std::memcpy(out.data() + done, &v, n);
    done += n;
  }
}

sim::Co<void> Processor::store_uncached(mem::Addr a,
                                        std::span<const std::byte> in) {
  for (std::size_t done = 0; done < in.size();) {
    const std::uint32_t n = beat_bytes(a + done, in.size() - done);
    std::uint64_t v = 0;
    std::memcpy(&v, in.data() + done, n);
    co_await uncached(mem::BusOp::kWriteSingle, a + done, n, v);
    done += n;
  }
}

sim::Co<void> Processor::flush_line(mem::Addr a) {
  if (cache_ == nullptr) {
    co_return;
  }
  const sim::Tick t0 = now();
  co_await cache_->flush_line(a);
  busy_.add_busy(now() - t0);
  trace_busy("flush", t0, now());
}

sim::Co<void> Processor::flush_range(mem::Addr a, std::size_t len) {
  if (cache_ == nullptr) {
    co_return;
  }
  const sim::Tick t0 = now();
  co_await cache_->flush_range(a, len);
  busy_.add_busy(now() - t0);
  trace_busy("flush", t0, now());
}

sim::Co<void> Processor::invalidate_line(mem::Addr a) {
  if (cache_ == nullptr) {
    co_return;
  }
  co_await cache_->invalidate_line(a);
}

void Processor::run(sim::Co<void> program, sim::OneShot* done) {
  sim::spawn([](sim::Co<void> prog, sim::OneShot* d) -> sim::Co<void> {
    co_await std::move(prog);
    if (d != nullptr) {
      d->fire();
    }
  }(std::move(program), done));
}

void Processor::ckpt_save(ckpt::Writer& w) const {
  ckpt::save(w, ops_);
  ckpt::save(w, busy_);
}

}  // namespace sv::cpu
