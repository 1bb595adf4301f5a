#include "mem/bus.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ckpt/stats_io.hpp"

namespace sv::mem {

std::string_view to_string(BusOp op) {
  switch (op) {
    case BusOp::kRead:
      return "Read";
    case BusOp::kRWITM:
      return "RWITM";
    case BusOp::kWriteLine:
      return "WriteLine";
    case BusOp::kReadSingle:
      return "ReadSingle";
    case BusOp::kWriteSingle:
      return "WriteSingle";
    case BusOp::kKill:
      return "Kill";
    case BusOp::kFlush:
      return "Flush";
  }
  return "?";
}

void BusDevice::bus_read_data(const BusRequest& req,
                              std::span<std::byte> out) {
  (void)req;
  (void)out;
  throw std::logic_error(std::string(device_name()) +
                         ": bus_read_data not implemented");
}

void BusDevice::bus_write_data(const BusRequest& req,
                               std::span<const std::byte> in) {
  (void)req;
  (void)in;
  throw std::logic_error(std::string(device_name()) +
                         ": bus_write_data not implemented");
}

MemBus::MemBus(sim::Kernel& kernel, std::string name, Params params)
    : sim::SimObject(kernel, std::move(name)),
      params_(params),
      addr_bus_(kernel, 1),
      data_bus_(kernel, 1) {}

int MemBus::attach(BusDevice* dev) {
  devices_.push_back(dev);
  return static_cast<int>(devices_.size()) - 1;
}

trace::Tracer* MemBus::trace_target() {
  trace::Tracer* tr = kernel_.tracer();
  if (tr == nullptr || !tr->enabled()) {
    return nullptr;
  }
  if (trace_track_ == trace::kNoTrack) {
    trace_track_ = tr->track_for(name(), "bus");
  }
  return tr;
}

void MemBus::observe_all(const BusRequest& req, const BusResult& res) {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (static_cast<int>(i) != req.requester) {
      devices_[i]->bus_observe(req, res);
    }
  }
}

// --- Fast path (DESIGN.md §12) ---------------------------------------------

bool MemBus::fast_blockers() const {
  trace::Tracer* tr = kernel_.tracer();
  return tr != nullptr && tr->enabled();
}

bool MemBus::plan_fast(const BusRequest& req, std::uint64_t s0,
                       sim::Tick start, sim::Tick t1, sim::Tick t2) {
  if (fast_blockers()) {
    return false;
  }
  if (addr_bus_.available() != 1 || data_bus_.available() != 1 ||
      fast_rec_.wake_pending) {
    return false;
  }
  // Address-only ops and flushes stay slow: their control flow depends on
  // the live snoop outcome in ways the bypass does not model.
  if (op_address_only(req.op) || req.op == BusOp::kFlush) {
    return false;
  }
  int accept = -1;
  sim::Cycles accept_latency = 0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (static_cast<int>(i) == req.requester) {
      continue;
    }
    // Stable snoops are pure, so sampling them early equals sampling them
    // in the address tenure.
    SnoopResult sr;
    if (!devices_[i]->bus_fast_probe(req, &sr)) {
      return false;
    }
    if (sr.action == SnoopAction::kAccept) {
      if (accept >= 0) {
        return false;  // let the slow path's assert flag the double claim
      }
      accept = static_cast<int>(i);
      accept_latency = sr.latency;
    } else if (sr.action != SnoopAction::kIgnore) {
      return false;  // stability contract violated; stay safe
    }
  }
  if (accept < 0) {
    return false;
  }

  FastRecord& r = fast_rec_;
  assert(!r.live && "a live fast record implies a held address bus");
  const sim::Cycles beats =
      std::max<sim::Cycles>(1, (req.size + kBeatBytes - 1) / kBeatBytes);
  r.live = true;
  r.committed = false;
  ++r.gen;
  r.wake_phase = 0;
  r.s0 = s0;
  r.has_lead = req.lead_ticks > 0;
  r.t_lead = start;
  r.start = start;
  r.t1 = t1;
  r.t2 = t2;
  r.t3 = t2 + params_.clock.to_ticks(accept_latency + beats);
  r.beats = beats;
  r.accept_device = accept;
  r.req = req;
  r.res = BusResult{};
  r.res.responder = accept;

  const bool got = addr_bus_.try_acquire();
  assert(got);
  (void)got;
  kernel_.schedule_at_seq(r.t3, s0 + 2,
                          [this, gen = r.gen] { fast_complete(gen); });
  return true;
}

void MemBus::fast_complete(std::uint64_t gen) {
  FastRecord& r = fast_rec_;
  if (!r.live || r.gen != gen) {
    return;  // revoked; this event is dead
  }
  // Everything below reproduces the slow path's actions at its final
  // dispatch (t3, s0+2), in the same order, so downstream fresh-sequence
  // consumption (semaphore wakes, observer spawns) lines up exactly.
  stats_.transactions.inc();
  stats_.data_beats.inc(r.beats);
  stats_.data_busy.add_busy(r.t3 - r.t2);
  if (op_reads_data(r.req.op)) {
    devices_[r.accept_device]->bus_read_data(
        r.req, std::span<std::byte>(r.req.rdata, r.req.size));
  } else {
    devices_[r.accept_device]->bus_write_data(
        r.req, std::span<const std::byte>(r.req.wdata, r.req.size));
  }
  if (r.committed) {
    data_bus_.release();
  } else {
    // Never revoked: no other master ever arbitrated, so nobody queued on
    // the address bus and this release cannot wake anyone.
    addr_bus_.release();
  }
  observe_all(r.req, r.res);
  stats_.latency_ps.sample(r.t3 - r.start);
  ++fast_hits_;
  r.live = false;
  r.wake_phase = 0;
  // Resume last: the continuation may start new transactions that re-use
  // the record. transact() copies the result out before control returns.
  r.waiter.resume();
}

void MemBus::fast_wake() {
  // The record is already marked dead; hand control back to the coroutine,
  // which continues on the slow path from the reserved phase point it was
  // woken at (wake_phase tells it which). Clearing wake_pending first
  // releases the record for re-engagement — the resumed continuation may
  // start new transactions.
  fast_rec_.wake_pending = false;
  fast_rec_.waiter.resume();
}

void MemBus::revoke_fastpath() {
  FastRecord& r = fast_rec_;
  if (!r.live || r.committed) {
    return;
  }
  const sim::Tick t = kernel_.now();
  const std::uint64_t s = kernel_.current_seq();
  if (r.has_lead &&
      (t < r.t_lead || (t == r.t_lead && s < r.s0 - 1))) {
    // Lead-in (issue/decode) window: the slow path would hold nothing yet,
    // so un-seize the address bus (nobody can be queued on it: it was free
    // at engagement and every acquirer since revokes first) and wake at
    // the lead key. The coroutine re-runs the slow path from arbitration —
    // behind the revoker, exactly as the slow schedule would order it.
    ++r.gen;
    r.wake_phase = 1;
    r.live = false;
    r.wake_pending = true;
    addr_bus_.release();
    kernel_.schedule_at_seq(r.t_lead, r.s0 - 1, [this] { fast_wake(); });
  } else if (t < r.t1 || (t == r.t1 && s < r.s0)) {
    // Arbitration window: cancel the completion and resume the coroutine
    // at the align edge — exactly where the slow path's first phase event
    // would have dispatched. The address bus stays held, as it would be.
    ++r.gen;
    r.wake_phase = 2;
    r.live = false;
    r.wake_pending = true;
    kernel_.schedule_at_seq(r.t1, r.s0, [this] { fast_wake(); });
  } else if (t < r.t2 || (t == r.t2 && s < r.s0 + 1)) {
    // Address tenure in progress: resume at its end and re-run the snoop
    // window live (the revoker may change what snoopers answer).
    ++r.gen;
    r.wake_phase = 3;
    r.live = false;
    r.wake_pending = true;
    kernel_.schedule_at_seq(r.t2, r.s0 + 1, [this] { fast_wake(); });
  } else {
    // Address tenure complete: this is a commit, not a revocation. Move
    // the resource state to what the slow path would hold during a data
    // tenure (address bus free, data bus held); the completion event
    // stays live and finishes on the slow schedule.
    r.committed = true;
    addr_bus_.release();
    const bool got = data_bus_.try_acquire();
    assert(got && "data bus must be free while a fast record is live");
    (void)got;
  }
}

// --- Transactions ----------------------------------------------------------

sim::Co<BusResult> MemBus::issue(int requester_id, BusRequest req,
                                  unsigned max_tries) {
  req.requester = requester_id;
  for (unsigned tries = 1;; ++tries) {
    // Entry is the revocation choke point: any new master (or any operation
    // that could invalidate the bypass's assumptions) passes through here
    // before arbitrating, so an in-flight bypass folds back onto the slow
    // schedule before this transaction can observe anything.
    revoke_fastpath();
    const sim::Tick lead = req.lead_ticks;
    // Issue time: where the slow path finishes the requester's folded-in
    // lead (work/decode) delay and begins arbitrating. Latency stats are
    // measured from here, so fused and unfused callers sample identically.
    const sim::Tick start = now() + lead;
    // Reserve the dispatch keys of all timed phases up front — in BOTH
    // modes — so fast and slow runs issue identical sequence numbers at
    // identical program points. This pins the global dispatch order, which
    // is the entire bit-identity argument (DESIGN.md §12). A folded lead
    // delay adds one key (s0 - 1) ahead of the three phase keys.
    const std::uint64_t s_base = kernel_.reserve_seqs(lead > 0 ? 4 : 3);
    const std::uint64_t s0 = lead > 0 ? s_base + 1 : s_base;
    const sim::Tick t1 = start + params_.clock.until_next_edge(start);
    const sim::Tick t2 = t1 + params_.clock.to_ticks(params_.address_cycles);

    int resume_phase = 0;
    if (params_.fastpath && plan_fast(req, s0, start, t1, t2)) {
      const int phase = co_await FastAwait{*this};
      if (phase == 0) {
        co_return fast_rec_.res;  // completed in one event
      }
      resume_phase = phase;  // revoked: continue on the slow path below
    }

    // --- Lead-in ------------------------------------------------------------
    if (resume_phase == 0 && lead > 0) {
      co_await sim::seq_delay(kernel_, start, s_base);
    }
    // --- Address tenure -----------------------------------------------------
    if (resume_phase <= 1) {
      co_await addr_bus_.acquire();
      co_await sim::seq_delay(
          kernel_, now() + params_.clock.until_next_edge(now()), s0);
    }
    if (resume_phase <= 2) {
      co_await sim::seq_delay(
          kernel_, now() + params_.clock.to_ticks(params_.address_cycles),
          s0 + 1);
    }

    BusResult res;
    int accept_device = -1;      // device that claimed the address (memory)
    sim::Cycles accept_latency = 0;
    int modified_device = -1;    // device performing intervention
    sim::Cycles modified_latency = 0;
    bool retry = false;

    for (std::size_t i = 0; i < devices_.size(); ++i) {
      if (static_cast<int>(i) == requester_id) {
        continue;
      }
      const SnoopResult sr = devices_[i]->bus_snoop(req);
      switch (sr.action) {
        case SnoopAction::kIgnore:
          break;
        case SnoopAction::kAccept:
          assert(accept_device < 0 && "multiple devices claimed one address");
          accept_device = static_cast<int>(i);
          accept_latency = sr.latency;
          break;
        case SnoopAction::kShared:
          res.shared = true;
          break;
        case SnoopAction::kModified:
          assert(modified_device < 0 && "multiple modified owners");
          modified_device = static_cast<int>(i);
          modified_latency = sr.latency;
          break;
        case SnoopAction::kRetry:
          retry = true;
          break;
      }
    }
    addr_bus_.release();

    // A transaction counts when it ends, as on the fast paths: here if it
    // ends with its address tenure, else after the data tenure.
    if (retry) {
      stats_.transactions.inc();
      stats_.retries.inc();
      res.retried = true;
      if (trace::Tracer* tr = trace_target()) {
        tr->instant(trace_track_,
                    "ARTRY " + std::string(to_string(req.op)), now());
      }
      if (max_tries != 0 && tries >= max_tries) {
        co_return res;
      }
      req.lead_ticks = 0;  // issue/decode work precedes only the first try
      co_await sim::delay(kernel_,
                          params_.clock.to_ticks(params_.retry_backoff));
      continue;
    }

    // Intervention: a dirty snooper overrides the addressed responder.
    int responder = accept_device;
    sim::Cycles latency = accept_latency;
    if (modified_device >= 0) {
      responder = modified_device;
      latency = modified_latency;
      res.intervened = true;
      res.shared = true;
      stats_.interventions.inc();
    }
    res.responder = responder;

    // Kill, a flush that found no dirty copy, or nobody claimed the
    // address: no data tenure.
    const bool address_only = op_address_only(req.op) ||
                              (req.op == BusOp::kFlush && !res.intervened);
    if (address_only || responder < 0) {
      stats_.transactions.inc();
      if (address_only) {
        stats_.address_only.inc();
      } else {
        res.no_responder = true;
      }
      observe_all(req, res);
      stats_.latency_ps.sample(now() - start);
      co_return res;
    }

    // --- Data tenure --------------------------------------------------------
    co_await data_bus_.acquire();
    const sim::Tick data_start = now();
    const sim::Cycles beats =
        std::max<sim::Cycles>(1, (req.size + kBeatBytes - 1) / kBeatBytes);
    co_await sim::seq_delay(
        kernel_, now() + params_.clock.to_ticks(latency + beats), s0 + 2);
    stats_.transactions.inc();
    stats_.data_beats.inc(beats);
    stats_.data_busy.add_busy(now() - data_start);
    if (trace::Tracer* tr = trace_target()) {
      // One span per data tenure: their sum is exactly data_busy, so trace
      // occupancy reproduces the StatRegistry bus occupancy.
      tr->span(trace_track_, std::string(to_string(req.op)), data_start,
               now());
    }

    if (req.op == BusOp::kFlush) {
      // The dirty owner pushes the line back to memory.
      assert(res.intervened);
      std::byte line[kLineBytes];
      std::span<std::byte> buf(line, req.size);
      devices_[responder]->bus_read_data(req, buf);
      if (accept_device >= 0) {
        devices_[accept_device]->bus_write_data(req, buf);
      }
    } else if (op_reads_data(req.op)) {
      assert(req.rdata != nullptr);
      std::span<std::byte> buf(req.rdata, req.size);
      devices_[responder]->bus_read_data(req, buf);
      if (res.intervened && req.op == BusOp::kRead && accept_device >= 0) {
        // Intervention data is reflected into memory so the previously dirty
        // line becomes clean-shared system-wide.
        devices_[accept_device]->bus_write_data(req, buf);
      }
    } else if (op_writes_data(req.op)) {
      assert(req.wdata != nullptr);
      std::span<const std::byte> buf(req.wdata, req.size);
      devices_[responder]->bus_write_data(req, buf);
    }
    data_bus_.release();
    observe_all(req, res);
    stats_.latency_ps.sample(now() - start);
    co_return res;
  }
}

void MemBus::ckpt_save(ckpt::Writer& w) const {
  ckpt::save(w, stats_.transactions);
  ckpt::save(w, stats_.retries);
  ckpt::save(w, stats_.interventions);
  ckpt::save(w, stats_.address_only);
  ckpt::save(w, stats_.data_beats);
  ckpt::save(w, stats_.data_busy);
  ckpt::save(w, stats_.latency_ps);
}

}  // namespace sv::mem
