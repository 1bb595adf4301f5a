// The discrete-event simulation kernel.
//
// A Kernel owns the event queue and the notion of "now" for one *event
// domain*. All simulated hardware units (SimObjects) hold a reference to one
// Kernel and schedule their activity on it. Execution within a domain is
// strictly sequential and deterministic: events at equal times run in
// scheduling order.
//
// A whole machine is either one domain (the classic sequential case) or one
// domain per node (sim::ParallelKernel). Work that crosses a domain boundary
// — a packet handed from one node to another — must not go through
// schedule(), whose tie-break is local push order; it goes through post(),
// the cross-domain mailbox. Mailbox messages carry an explicit
// (tick, source, sequence) key and are injected into the event queue at the
// moment the domain's clock first advances to their tick, in key order:
// after every event already queued at that tick, before anything scheduled
// during it. Because the rule references only the key and the local queue —
// never global arrival order — a single-domain run and an N-domain run
// interleave each node's events identically, which is what makes parallel
// execution bit-reproducible against the sequential kernel.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/types.hpp"

namespace sv::ckpt {
class Writer;
}  // namespace sv::ckpt

namespace sv::trace {
class Tracer;
}  // namespace sv::trace

namespace sv::fault {
class Injector;
}  // namespace sv::fault

namespace sv::sim {

class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] Tick now() const { return now_; }

  /// Schedule `fn` to run `delta` ticks from now (delta may be 0: the event
  /// runs after all currently-executing work, still at the same time).
  /// `fn` is forwarded: the queue builds the callback in its slot.
  template <typename F>
  void schedule(Tick delta, F&& fn) {
    events_.push(now_ + delta, std::forward<F>(fn));
  }

  /// Schedule `fn` at an absolute time, which must be >= now().
  template <typename F>
  void schedule_abs(Tick when, F&& fn) {
    if (when < now_) {
      throw std::logic_error("Kernel::schedule_abs: time in the past");
    }
    events_.push(when, std::forward<F>(fn));
  }

  /// Reserve `n` consecutive dispatch tie-break keys (sequence numbers)
  /// and return the first. See EventQueue::reserve_seqs and DESIGN.md §12:
  /// fast and slow mode reserve at identical program points, which pins
  /// dispatch order — and therefore stats and traces — across modes.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    return events_.reserve_seqs(n);
  }

  /// Schedule `fn` at absolute time `when` under a reserved sequence
  /// number. (when, seq) must be at or after the currently dispatching
  /// event's key; `when` must be >= now().
  template <typename F>
  void schedule_at_seq(Tick when, std::uint64_t seq, F&& fn) {
    if (when < now_) {
      throw std::logic_error("Kernel::schedule_at_seq: time in the past");
    }
    events_.push_at_seq(when, seq, std::forward<F>(fn));
  }

  /// Key of the event currently being dispatched (its tie-break sequence
  /// number). Valid only while an event is executing; the fast-path
  /// revocation protocol compares this against reserved phase keys to
  /// decide which phases of a bypassed operation have already "happened".
  [[nodiscard]] std::uint64_t current_seq() const { return current_seq_; }

  /// Cross-domain mailbox: deliver `fn` at absolute time `when`, ordered by
  /// (when, src, seq) against every other posted message regardless of the
  /// order post() calls arrive in. `seq` must be monotone per `src` (the
  /// sender's own deterministic send order). `when` must be strictly ahead
  /// of the sender's epoch — the conservative lookahead guarantee.
  ///
  /// Thread-safe in deferred mode (see set_deferred_mailbox); in immediate
  /// mode it may only be called from this domain's executing events.
  void post(Tick when, std::uint32_t src, std::uint64_t seq,
            EventQueue::Callback fn);

  /// Deferred mode (parallel execution): post() stages messages in a locked
  /// side buffer, and they only become runnable when the epoch coordinator
  /// calls commit_mailbox() at a barrier. Immediate mode (the default,
  /// sequential execution): post() files messages directly.
  void set_deferred_mailbox(bool on) { deferred_mailbox_ = on; }

  /// Arrival hook for the O(active-domains) barrier: in deferred mode,
  /// `fn` fires once per staged_ empty-to-nonempty transition — i.e. at
  /// most once between commits — telling the epoch coordinator this
  /// domain has mail and must be committed and woken at the next barrier.
  /// Called from whichever worker thread posted, outside staged_mu_; the
  /// callee must do its own locking.
  void set_post_notify(std::function<void()> fn) {
    post_notify_ = std::move(fn);
  }

  /// Move staged messages into the runnable mailbox. Call only while no
  /// worker is executing this domain (i.e. at an epoch barrier).
  void commit_mailbox();

  /// Run until the event queue and mailbox drain. Returns the final time.
  Tick run();

  /// Run events with time <= `t`; afterwards now() == t unless the queue
  /// drained earlier (then now() is the last event time).
  Tick run_until(Tick t);

  /// Run exactly one event if any is pending. Returns false when idle.
  bool step();

  [[nodiscard]] bool idle() const {
    return events_.empty() && mailbox_.empty();
  }

  /// Time of the next pending event or mailbox message, or kTickInvalid
  /// when idle. Staged (uncommitted) messages are not considered.
  [[nodiscard]] Tick next_event_time() const {
    const Tick qt = events_.empty() ? kTickInvalid : events_.next_time();
    const Tick mt = mailbox_.empty() ? kTickInvalid : mailbox_.top().when;
    return qt < mt ? qt : mt;
  }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Total sequence numbers issued (events scheduled + keys reserved).
  /// Mode-invariant across fast/slow path runs, unlike events_executed()
  /// — see EventQueue::total_scheduled().
  [[nodiscard]] std::uint64_t events_scheduled() const {
    return events_.total_scheduled();
  }

  /// Hard cap on events per run()/run_until() call, as a runaway guard for
  /// tests. 0 disables the cap. The budget is per call: each run() or
  /// run_until() starts a fresh count.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  /// Timeline tracer, or nullptr when tracing is off. Instrumentation
  /// sites must treat nullptr as "record nothing" — that null check is the
  /// entire disabled-path cost.
  [[nodiscard]] trace::Tracer* tracer() const { return tracer_; }
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Fault injector, or nullptr when fault injection is off. Hook sites
  /// must treat nullptr as "inject nothing" — like the tracer, the null
  /// check is the entire disabled-path cost.
  [[nodiscard]] fault::Injector* fault_injector() const { return fault_; }
  void set_fault_injector(fault::Injector* fault) { fault_ = fault; }

  /// Append the domain's snapshot state to `w`: clock, the event queue's
  /// sequence counter and pending keys (EventQueue::ckpt_save), and every
  /// pending cross-domain mailbox key in (when, src, seq) order. Must be
  /// called while no event is executing and staged_ is empty — i.e. at an
  /// epoch boundary (DESIGN.md §14).
  void ckpt_save(ckpt::Writer& w) const;

 private:
  struct CrossMsg {
    Tick when;
    std::uint32_t src;
    std::uint64_t seq;
    // Mutable for the same reason as EventQueue::Entry: moved out of the
    // priority queue's const top(); ordering never inspects it.
    mutable EventQueue::Callback fn;

    bool operator>(const CrossMsg& o) const {
      if (when != o.when) {
        return when > o.when;
      }
      if (src != o.src) {
        return src > o.src;
      }
      return seq > o.seq;
    }
  };
  using Mailbox =
      std::priority_queue<CrossMsg, std::vector<CrossMsg>, std::greater<>>;

  /// Execute the earliest event no later than `bound`, first injecting any
  /// mailbox messages due at its tick. Returns false when nothing <= bound
  /// is pending. Throws when the per-run event budget is exhausted.
  bool dispatch_one(Tick bound);

  EventQueue events_;
  Mailbox mailbox_;
  std::vector<CrossMsg> staged_;
  std::mutex staged_mu_;
  std::function<void()> post_notify_;
  bool deferred_mailbox_ = false;
  Tick now_ = 0;
  std::uint64_t current_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t run_executed_ = 0;
  std::uint64_t event_limit_ = 0;
  trace::Tracer* tracer_ = nullptr;
  fault::Injector* fault_ = nullptr;
};

/// Base class for named simulated components.
class SimObject {
 public:
  SimObject(Kernel& kernel, std::string name)
      : kernel_(kernel), name_(std::move(name)) {}
  virtual ~SimObject() = default;

  SimObject(const SimObject&) = delete;
  SimObject& operator=(const SimObject&) = delete;

  [[nodiscard]] Kernel& kernel() const { return kernel_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Tick now() const { return kernel_.now(); }

 protected:
  Kernel& kernel_;  // NOLINT(misc-non-private-member-variables-in-classes)

 private:
  std::string name_;
};

}  // namespace sv::sim
