#include "mem/cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "ckpt/stats_io.hpp"
#include "sim/crc32.hpp"

namespace sv::mem {

std::string_view to_string(MesiState s) {
  switch (s) {
    case MesiState::kInvalid:
      return "I";
    case MesiState::kShared:
      return "S";
    case MesiState::kExclusive:
      return "E";
    case MesiState::kModified:
      return "M";
  }
  return "?";
}

SnoopingCache::SnoopingCache(sim::Kernel& kernel, std::string name,
                             MemBus& bus, Params params)
    : sim::SimObject(kernel, std::move(name)),
      bus_(bus),
      bus_id_(bus.attach(this)),
      params_(params),
      op_mutex_(kernel, 1) {
  const std::size_t lines = params_.size_bytes / kLineBytes;
  const std::size_t num_sets = std::max<std::size_t>(1, lines / params_.ways);
  // Sets materialize lazily (see materialize_set): a 512KB cache is ~0.75MB
  // of Line storage, which dominates an idle node's footprint at scale. An
  // empty set reads as all-invalid everywhere (find_line and ckpt_save
  // iterate what exists), so laziness is invisible to behavior and digests.
  sets_.resize(num_sets);
}

std::size_t SnoopingCache::set_index(Addr addr) const {
  return static_cast<std::size_t>((addr / kLineBytes) % sets_.size());
}

std::size_t SnoopingCache::chunk_count(Addr addr, std::size_t size) {
  if (size == 0) {
    return 0;
  }
  return static_cast<std::size_t>(
      (addr % kLineBytes + size + kLineBytes - 1) / kLineBytes);
}

SnoopingCache::Line* SnoopingCache::find_line(Addr addr) {
  const Addr tag = line_base(addr);
  for (Line& line : sets_[set_index(addr)]) {
    if (line.state != MesiState::kInvalid && line.tag == tag) {
      return &line;
    }
  }
  return nullptr;
}

const SnoopingCache::Line* SnoopingCache::find_line(Addr addr) const {
  const Addr tag = line_base(addr);
  for (const Line& line : sets_[set_index(addr)]) {
    if (line.state != MesiState::kInvalid && line.tag == tag) {
      return &line;
    }
  }
  return nullptr;
}

SnoopingCache::Line& SnoopingCache::choose_victim(std::size_t set) {
  materialize_set(set);
  Line* victim = nullptr;
  for (Line& line : sets_[set]) {
    if (line.state == MesiState::kInvalid) {
      return line;
    }
    if (victim == nullptr || line.lru < victim->lru) {
      victim = &line;
    }
  }
  return *victim;
}

MesiState SnoopingCache::probe(Addr addr) const {
  const Line* line = find_line(addr);
  return line ? line->state : MesiState::kInvalid;
}

void SnoopingCache::purge_range(Addr addr, std::size_t len) {
  const Addr first = line_base(addr);
  const Addr last = line_base(addr + len - 1);
  for (Addr a = first; a <= last; a += kLineBytes) {
    if (Line* line = find_line(a)) {
      line->state = MesiState::kInvalid;
      line->push_pending = false;
    }
  }
}

sim::Co<void> SnoopingCache::write_back(Line& line, std::size_t set) {
  (void)set;
  // Detach the data first so the line can be reused while the writeback
  // transaction is in flight.
  std::array<std::byte, kLineBytes> data = line.data;
  const Addr addr = line.tag;
  line.state = MesiState::kInvalid;
  stats_.writebacks.inc();
  BusRequest req;
  req.op = BusOp::kWriteLine;
  req.addr = addr;
  req.size = kLineBytes;
  req.wdata = data.data();
  co_await bus_.transact_retry(bus_id_, req);
}

sim::Co<SnoopingCache::Line*> SnoopingCache::fill_line(Addr line_addr,
                                                       BusOp op) {
  assert(op == BusOp::kRead || op == BusOp::kRWITM);
  const std::size_t set = set_index(line_addr);
  Line& victim = choose_victim(set);
  if (victim.state == MesiState::kModified) {
    co_await write_back(victim, set);
  } else {
    victim.state = MesiState::kInvalid;
  }

  std::array<std::byte, kLineBytes> buf{};
  BusRequest req;
  req.op = op;
  req.addr = line_addr;
  req.size = kLineBytes;
  req.rdata = buf.data();
  req.from_ap = true;
  const BusResult res = co_await bus_.transact_retry(bus_id_, req);

  victim.tag = line_addr;
  victim.data = buf;
  victim.push_pending = false;
  if (op == BusOp::kRWITM) {
    victim.state = MesiState::kExclusive;  // promoted to M by the write
  } else {
    victim.state = res.shared ? MesiState::kShared : MesiState::kExclusive;
  }
  touch(victim);
  co_return &victim;
}

sim::Co<void> SnoopingCache::read(Addr addr, std::span<std::byte> out,
                                  std::uint64_t chunk_seqs) {
  if (chunk_seqs == kAutoSeqs) {
    // Reserve one dispatch key per chunk at entry so the sequence stream is
    // a function of the access alone, not of which chunks hit.
    chunk_seqs = kernel_.reserve_seqs(chunk_count(addr, out.size()));
  }
  co_await op_mutex_.acquire();
  std::size_t done = 0;
  std::uint64_t seq = chunk_seqs;
  while (done < out.size()) {
    const Addr a = addr + done;
    const Addr base = line_base(a);
    const std::size_t offset = a - base;
    const std::size_t chunk =
        std::min(out.size() - done, kLineBytes - offset);

    Line* line = find_line(a);
    if (line != nullptr) {
      co_await sim::seq_delay(kernel_, now() + hit_ticks(), seq);
      stats_.read_hits.inc();  // at the chunk-completion key, not the probe
    } else {
      // Miss: the chunk's reserved key goes unused (the fill's bus phases
      // reserve their own) — an identical hole in every mode.
      stats_.read_misses.inc();
      line = co_await fill_line(base, BusOp::kRead);
    }
    std::memcpy(out.data() + done, line->data.data() + offset, chunk);
    touch(*line);
    done += chunk;
    ++seq;
  }
  op_mutex_.release();
}

sim::Co<void> SnoopingCache::write(Addr addr, std::span<const std::byte> in,
                                   std::uint64_t chunk_seqs) {
  if (chunk_seqs == kAutoSeqs) {
    chunk_seqs = kernel_.reserve_seqs(chunk_count(addr, in.size()));
  }
  co_await op_mutex_.acquire();
  std::size_t done = 0;
  std::uint64_t seq = chunk_seqs;
  while (done < in.size()) {
    const Addr a = addr + done;
    const Addr base = line_base(a);
    const std::size_t offset = a - base;
    const std::size_t chunk = std::min(in.size() - done, kLineBytes - offset);

    Line* line = find_line(a);
    if (line != nullptr &&
        (line->state == MesiState::kModified ||
         line->state == MesiState::kExclusive)) {
      co_await sim::seq_delay(kernel_, now() + hit_ticks(), seq);
      stats_.write_hits.inc();  // at the chunk-completion key
    } else if (line != nullptr && line->state == MesiState::kShared) {
      // Upgrade: broadcast a kill so other holders drop their copies.
      stats_.write_hits.inc();
      stats_.upgrades.inc();
      BusRequest req;
      req.op = BusOp::kKill;
      req.addr = base;
      req.size = 0;
      req.from_ap = true;
      co_await bus_.transact_retry(bus_id_, req);
      // The line may have been invalidated while the kill was queued
      // (a competing RWITM won); re-check and fall back to a fill.
      line = find_line(a);
      if (line == nullptr) {
        line = co_await fill_line(base, BusOp::kRWITM);
      }
    } else {
      stats_.write_misses.inc();
      line = co_await fill_line(base, BusOp::kRWITM);
    }
    std::memcpy(line->data.data() + offset, in.data() + done, chunk);
    line->state = MesiState::kModified;
    touch(*line);
    done += chunk;
    ++seq;
  }
  op_mutex_.release();
}

sim::Co<void> SnoopingCache::flush_line(Addr addr) {
  co_await op_mutex_.acquire();
  Line* line = find_line(addr);
  if (line != nullptr) {
    if (line->state == MesiState::kModified) {
      co_await write_back(*line, set_index(addr));
    } else {
      line->state = MesiState::kInvalid;
    }
  } else {
    // Not ours: broadcast a flush so any other owner pushes it back.
    BusRequest req;
    req.op = BusOp::kFlush;
    req.addr = line_base(addr);
    req.size = kLineBytes;
    co_await bus_.transact_retry(bus_id_, req);
  }
  op_mutex_.release();
}

sim::Co<void> SnoopingCache::invalidate_line(Addr addr) {
  co_await op_mutex_.acquire();
  if (Line* line = find_line(addr)) {
    line->state = MesiState::kInvalid;
  }
  op_mutex_.release();
}

sim::Co<void> SnoopingCache::flush_range(Addr addr, std::size_t len) {
  const Addr first = line_base(addr);
  const Addr last = line_base(addr + len - 1);
  for (Addr a = first; a <= last; a += kLineBytes) {
    co_await flush_line(a);
  }
}

// --- Snooping side ---------------------------------------------------------

SnoopResult SnoopingCache::bus_snoop(const BusRequest& req) {
  Line* line = find_line(req.addr);
  if (line == nullptr) {
    return {};
  }
  switch (req.op) {
    case BusOp::kRead:
    case BusOp::kReadSingle:
    case BusOp::kRWITM:
      if (line->state == MesiState::kModified) {
        return {SnoopAction::kModified, params_.intervention_cycles};
      }
      return {SnoopAction::kShared, 0};
    case BusOp::kFlush:
      if (line->state == MesiState::kModified) {
        return {SnoopAction::kModified, params_.intervention_cycles};
      }
      return {SnoopAction::kShared, 0};
    case BusOp::kWriteSingle:
    case BusOp::kWriteLine:
    case BusOp::kKill:
      if (line->state == MesiState::kModified) {
        // Another master wants to overwrite or kill a line we hold dirty:
        // retry it and push the line back to memory first (60x snoop push).
        if (!line->push_pending) {
          line->push_pending = true;
          stats_.snoop_pushes.inc();
          sim::spawn(snoop_push(line->tag));
        }
        return {SnoopAction::kRetry, 0};
      }
      return {SnoopAction::kShared, 0};
  }
  return {};
}

sim::Co<void> SnoopingCache::snoop_push(Addr line_addr) {
  // Runs independently of processor-side operations, like a real snoop
  // buffer. Re-check the line when we get to run: it may already be gone.
  Line* line = find_line(line_addr);
  if (line == nullptr || line->state != MesiState::kModified) {
    if (line != nullptr) {
      line->push_pending = false;
    }
    co_return;
  }
  std::array<std::byte, kLineBytes> data = line->data;
  BusRequest req;
  req.op = BusOp::kWriteLine;
  req.addr = line_addr;
  req.size = kLineBytes;
  req.wdata = data.data();
  co_await bus_.transact_retry(bus_id_, req);
  // Invalidate after the push lands (we kept intervening meanwhile).
  line = find_line(line_addr);
  if (line != nullptr) {
    line->state = MesiState::kInvalid;
    line->push_pending = false;
  }
  stats_.writebacks.inc();
}

void SnoopingCache::bus_read_data(const BusRequest& req,
                                  std::span<std::byte> out) {
  // We are supplying intervention data for a line we hold modified.
  const Line* line = find_line(req.addr);
  assert(line != nullptr && line->state == MesiState::kModified);
  const std::size_t offset = req.addr - line_base(req.addr);
  assert(offset + out.size() <= kLineBytes);
  std::memcpy(out.data(), line->data.data() + offset, out.size());
  stats_.snoop_interventions.inc();
}

void SnoopingCache::bus_write_data(const BusRequest& req,
                                   std::span<const std::byte> in) {
  (void)req;
  (void)in;
  assert(false && "cache is never the addressed responder for writes");
}

void SnoopingCache::bus_observe(const BusRequest& req, const BusResult& res) {
  (void)res;
  Line* line = find_line(req.addr);
  if (line == nullptr) {
    return;
  }
  switch (req.op) {
    case BusOp::kRead:
    case BusOp::kReadSingle:
      // Someone read a copy: downgrade exclusive/modified to shared
      // (modified data was reflected to memory by the bus).
      if (line->state == MesiState::kModified ||
          line->state == MesiState::kExclusive) {
        line->state = MesiState::kShared;
      }
      break;
    case BusOp::kRWITM:
    case BusOp::kKill:
    case BusOp::kFlush:
      if (line->state == MesiState::kModified && req.op == BusOp::kKill) {
        // Handled via snoop push; the kill was retried, so if we are here
        // the push has completed and the line is no longer modified.
        break;
      }
      line->state = MesiState::kInvalid;
      stats_.snoop_invalidates.inc();
      break;
    case BusOp::kWriteSingle:
    case BusOp::kWriteLine:
      // The memory copy changed under us; drop our (clean) copy.
      if (line->state != MesiState::kModified) {
        line->state = MesiState::kInvalid;
        stats_.snoop_invalidates.inc();
      }
      break;
  }
}

void SnoopingCache::ckpt_save(ckpt::Writer& w) const {
  ckpt::save(w, stats_.read_hits);
  ckpt::save(w, stats_.read_misses);
  ckpt::save(w, stats_.write_hits);
  ckpt::save(w, stats_.write_misses);
  ckpt::save(w, stats_.writebacks);
  ckpt::save(w, stats_.upgrades);
  ckpt::save(w, stats_.snoop_invalidates);
  ckpt::save(w, stats_.snoop_interventions);
  ckpt::save(w, stats_.snoop_pushes);
  w.u64(lru_clock_);
  std::uint64_t valid = 0;
  std::uint32_t crc = 0;
  for (std::size_t si = 0; si < sets_.size(); ++si) {
    for (std::size_t way = 0; way < sets_[si].size(); ++way) {
      const Line& line = sets_[si][way];
      if (line.state == MesiState::kInvalid) {
        continue;
      }
      ++valid;
      const std::uint64_t key[4] = {si, way, line.tag, line.lru};
      crc = sim::crc32(std::as_bytes(std::span(key)), crc);
      const auto st = static_cast<std::uint8_t>(line.state);
      crc = sim::crc32(std::as_bytes(std::span(&st, 1)), crc);
      crc = sim::crc32(std::as_bytes(std::span(line.data)), crc);
    }
  }
  w.u64(valid);
  w.u32(crc);
}

}  // namespace sv::mem
