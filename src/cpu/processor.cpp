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
      mutex_(kernel, 1) {
  if (cache_ != nullptr) {
    // Cache entry points that could interleave with an in-flight batch
    // (flush/invalidate/purge and direct read/write) revoke it first, so
    // they always see the same mutex/schedule state as in slow mode.
    cache_->set_fastpath_revoke([this] { batch_revoke(); });
  }
}

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
  // Reserve the work-phase key plus one key per cache chunk up front — in
  // BOTH modes — so fast and slow runs issue identical sequence numbers at
  // identical program points (the bit-identity argument, DESIGN.md §12).
  const sim::Tick t0 = now();
  const sim::Tick work_ticks = params_.clock.to_ticks(params_.op_overhead);
  const std::uint64_t s0 =
      kernel_.reserve_seqs(1 + mem::SnoopingCache::chunk_count(a, size));
  busy_.add_busy(work_ticks);
  trace_busy("work", t0, t0 + work_ticks);
  if (try_batch(a, rdata, wdata, size, s0, t0)) {
    if (co_await BatchAwait{*this} == 0) {
      co_return;  // completed in one event; stats applied at the hit key
    }
    // Revoked: resumed at (t_work, s0), exactly where the slow path's work
    // delay would have dispatched. Fall through to the slow cache access.
  } else {
    co_await sim::seq_delay(kernel_, t0 + work_ticks, s0);
  }
  if (rdata != nullptr) {
    co_await cache_->read(a, std::span(rdata, size), s0 + 1);
  } else {
    co_await cache_->write(a, std::span(wdata, size), s0 + 1);
  }
  ops_.inc();
  busy_.add_busy(now() - t0 - work_ticks);
  trace_busy(rdata != nullptr ? "load" : "store", t0 + work_ticks, now());
}

// --- Quantum batching (DESIGN.md §12) --------------------------------------

bool Processor::try_batch(mem::Addr a, std::byte* rdata,
                          const std::byte* wdata, std::size_t size,
                          std::uint64_t s0, sim::Tick t0) {
  trace::Tracer* tr = kernel_.tracer();
  if (!params_.fastpath || (tr != nullptr && tr->enabled())) {
    return false;
  }
  // A bus transaction in flight could snoop or observe this cache mid-batch
  // without re-entering transact (no revocation choke point), so the batch
  // requires a fully quiescent bus.
  if (!bus_.fast_quiescent()) {
    return false;
  }
  // Another program sharing this processor may already hold the batch
  // record (a live batch keeps the bus quiescent, so fast_quiescent()
  // cannot see it). Concurrent cached accesses take the slow path — whose
  // cache entry point revokes the live batch exactly like any other
  // interleaving agent would.
  if (batch_.live) {
    return false;
  }
  void* line = cache_->batch_begin(a, size, wdata != nullptr);
  if (line == nullptr) {
    return false;
  }
  Batch& b = batch_;
  b.live = true;
  ++b.gen;
  b.s0 = s0;
  b.t0 = t0;
  b.t_work = t0 + params_.clock.to_ticks(params_.op_overhead);
  b.t_end = b.t_work + cache_->hit_ticks();
  b.line = line;
  b.addr = a;
  b.rdata = rdata;
  b.wdata = wdata;
  b.size = size;
  kernel_.schedule_at_seq(b.t_end, s0 + 1,
                          [this, gen = b.gen] { batch_complete(gen); });
  bus_.note_device_fast_state(+1);
  return true;
}

void Processor::batch_complete(std::uint64_t gen) {
  Batch& b = batch_;
  if (!b.live || b.gen != gen) {
    return;  // revoked; this event is dead
  }
  // Reproduces the slow path's actions at its chunk-hit dispatch
  // (t_end, s0+1): commit through the handle captured at engagement (the
  // slow path captures its Line* before the hit delay and commits blindly
  // after), then the processor-side op accounting.
  cache_->batch_commit(b.line, b.addr, b.rdata, b.wdata, b.size);
  ops_.inc();
  busy_.add_busy(b.t_end - b.t_work);
  quantum_ticks_ += b.t_end - b.t0;
  b.live = false;
  *b.outcome = 0;
  bus_.note_device_fast_state(-1);
  // Resume last: the continuation may issue a new batch that re-uses the
  // record.
  b.waiter.resume();
}

void Processor::batch_revoke() {
  Batch& b = batch_;
  if (!b.live) {
    return;
  }
  const sim::Tick t = kernel_.now();
  const std::uint64_t s = kernel_.current_seq();
  if (t < b.t_work || (t == b.t_work && s < b.s0)) {
    // Before the work-phase key: fold back onto the slow schedule. Release
    // the eagerly-taken cache lock (nothing can be queued on it: it was
    // free at engagement and every acquirer since revokes first) and wake
    // the program at the work key — exactly where the slow path's first
    // event would have dispatched. Capture the handle and outcome slot
    // now: by the time the wake fires, another program may have engaged a
    // new batch and overwritten the shared record.
    ++b.gen;
    b.live = false;
    cache_->batch_abort();
    bus_.note_device_fast_state(-1);
    kernel_.schedule_at_seq(b.t_work, b.s0,
                            [h = b.waiter, out = b.outcome] {
                              *out = 1;
                              h.resume();
                            });
  }
  // At or after the work key this is a no-op: the slow path would hold the
  // cache lock here too, the completion event coincides with the slow
  // chunk-hit key, and the commit is blind — every observable already
  // matches the slow schedule, so the batch can safely run to completion.
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
