#include "sim/kernel.hpp"

#include <algorithm>
#include <stdexcept>

#include "ckpt/io.hpp"

namespace sv::sim {

void Kernel::post(Tick when, std::uint32_t src, std::uint64_t seq,
                  EventQueue::Callback fn) {
  if (deferred_mailbox_) {
    bool was_empty;
    {
      const std::lock_guard<std::mutex> lock(staged_mu_);
      was_empty = staged_.empty();
      staged_.push_back(CrossMsg{when, src, seq, std::move(fn)});
    }
    // First arrival since the last commit: tell the coordinator (outside
    // staged_mu_, so its own lock never nests under ours).
    if (was_empty && post_notify_) {
      post_notify_();
    }
    return;
  }
  mailbox_.push(CrossMsg{when, src, seq, std::move(fn)});
}

void Kernel::commit_mailbox() {
  const std::lock_guard<std::mutex> lock(staged_mu_);
  for (auto& m : staged_) {
    mailbox_.push(std::move(m));
  }
  staged_.clear();
}

bool Kernel::dispatch_one(Tick bound) {
  if (mailbox_.empty()) {
    // Fast path (the overwhelmingly common case): no pending cross-domain
    // messages, so the next event is simply the queue front. try_pop finds
    // and removes it in one traversal — the general path below locates the
    // front twice (next_time() to compare against the mailbox, pop() to
    // take it). Dispatch order is identical: with an empty mailbox the
    // comparisons below degenerate to exactly this.
    EventQueue::Popped ev = events_.try_pop(bound);
    if (!ev.fn) {
      return false;
    }
    now_ = ev.when;
    current_seq_ = ev.seq;
    ev.fn();
  } else {
    const Tick qt = events_.empty() ? kTickInvalid : events_.next_time();
    const Tick mt = mailbox_.top().when;
    const Tick next = qt < mt ? qt : mt;
    if (next > bound) {
      return false;
    }
    now_ = next;
    events_.advance(next);
    if (mt == next) {
      // Inject every mailbox message due now, in (src, seq) order: the heap
      // hands them over sorted, and each gets a fresh queue sequence number,
      // so they run after events already scheduled at this tick and before
      // anything scheduled while it executes — independent of when they were
      // posted, which is the property that keeps single-domain and
      // partitioned runs identical.
      do {
        events_.push(next, std::move(mailbox_.top().fn));
        mailbox_.pop();
      } while (!mailbox_.empty() && mailbox_.top().when == next);
    }
    EventQueue::Popped ev = events_.pop();
    current_seq_ = ev.seq;
    ev.fn();
  }
  ++executed_;
  ++run_executed_;
  if (event_limit_ != 0 && run_executed_ >= event_limit_) {
    throw std::runtime_error("Kernel: event limit exceeded (runaway?)");
  }
  return true;
}

Tick Kernel::run() {
  run_executed_ = 0;
  while (dispatch_one(kTickInvalid)) {
  }
  return now_;
}

Tick Kernel::run_until(Tick t) {
  run_executed_ = 0;
  while (dispatch_one(t)) {
  }
  if (now_ < t) {
    now_ = t;
    events_.advance(t);
  }
  return now_;
}

bool Kernel::step() { return dispatch_one(kTickInvalid); }

void Kernel::ckpt_save(ckpt::Writer& w) const {
  w.tick(now_);
  events_.ckpt_save(w);
  // Mailbox keys in canonical (when, src, seq) order. The callbacks are
  // closures and restore by replay, like the event queue's. staged_ is
  // intentionally not captured: at an epoch barrier it has been committed
  // and is empty.
  struct Expose : Mailbox {
    static const std::vector<CrossMsg>& container(const Mailbox& q) {
      return q.*&Expose::c;
    }
  };
  struct Key {
    Tick when;
    std::uint32_t src;
    std::uint64_t seq;
    bool operator<(const Key& o) const {
      if (when != o.when) {
        return when < o.when;
      }
      return src != o.src ? src < o.src : seq < o.seq;
    }
  };
  std::vector<Key> keys;
  for (const CrossMsg& m : Expose::container(mailbox_)) {
    keys.push_back(Key{m.when, m.src, m.seq});
  }
  std::sort(keys.begin(), keys.end());
  w.u64(keys.size());
  for (const Key& k : keys) {
    w.tick(k.when);
    w.u32(k.src);
    w.u64(k.seq);
  }
}

}  // namespace sv::sim
