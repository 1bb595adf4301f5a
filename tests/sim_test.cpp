// Unit tests for the simulation kernel: event ordering, coroutines,
#include <bit>
#include <set>
#include <sstream>
// synchronization primitives, statistics, configuration, PRNG.
#include <gtest/gtest.h>

#include "ckpt/io.hpp"
#include "sim/config.hpp"
#include "sim/coro.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace sv::sim {
namespace {

TEST(EventQueue, OrdersByTimeThenSequence) {
  EventQueue q;
  std::vector<int> order;
  q.push(20, [&] { order.push_back(2); });
  q.push(10, [&] { order.push_back(0); });
  q.push(10, [&] { order.push_back(1); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, EqualTickFifoAcrossEarlyAndLatePushes) {
  // Events at one tick, some pushed long before it (while the queue held
  // earlier work) and some pushed after time had advanced close to it,
  // must pop in insertion order: the (tick, seq) key is the only order.
  EventQueue q;
  std::vector<int> order;
  const Tick t = 1'000'000'000;
  q.push(t, [&] { order.push_back(0); });      // early
  q.push(1, [&] { order.push_back(-1); });
  for (Tick d : {Tick{7}, Tick{500}, t - 1, t + 1}) {
    q.push(d, [] {});                          // churn around the front
  }
  EXPECT_EQ(q.pop().when, 1u);
  order.clear();
  q.push(t, [&] { order.push_back(1); });      // still early
  while (q.next_time() < t) {
    q.pop().fn();
  }
  q.advance(t - 100);
  q.push(t, [&] { order.push_back(2); });      // late
  q.push(t, [&] { order.push_back(3); });      // late
  while (q.next_time() == t) {
    q.pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.pop().when, t + 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LongRescheduleChainsStayOrdered) {
  // Self-rescheduling chains with steps from a few ticks to a millisecond
  // run side by side for many rounds; every pop must be no earlier than
  // the one before, and each chain must end exactly where it should.
  EventQueue q;
  constexpr std::uint64_t kRounds = 64;
  Tick last = 0;
  struct Chain {
    EventQueue* q;
    Tick* last;
    std::uint64_t* fired;
    Tick step;
    Tick at;
    void operator()() const {
      EXPECT_GE(at, *last);
      *last = at;
      if (++*fired < kRounds) {
        q->push(at + step, Chain{q, last, fired, step, at + step});
      }
    }
  };
  const std::vector<Tick> steps = {7, 21'852, 65'539, 1'000'000'007};
  std::vector<std::uint64_t> fired(steps.size(), 0);
  for (std::size_t c = 0; c < steps.size(); ++c) {
    q.push(steps[c], Chain{&q, &last, &fired[c], steps[c], steps[c]});
  }
  while (!q.empty()) {
    auto p = q.pop();
    q.advance(p.when);
    p.fn();
  }
  for (std::size_t c = 0; c < steps.size(); ++c) {
    EXPECT_EQ(fired[c], kRounds) << "chain " << c;
  }
  EXPECT_EQ(last, kRounds * steps.back());
}

TEST(EventQueue, FarFutureEventsStayOrdered) {
  // Events spread over eleven orders of magnitude of tick, pushed out of
  // order; pops must come out in global (tick, seq) order.
  EventQueue q;
  std::vector<Tick> pops;
  for (Tick t : {Tick{1} << 40, Tick{3}, Tick{131'072}, Tick{50},
                 Tick{65'537}}) {
    q.push(t, [] {});
    pops.push_back(t);
  }
  std::sort(pops.begin(), pops.end());
  for (const Tick expect : pops) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.next_time(), expect);
    auto p = q.pop();
    EXPECT_EQ(p.when, expect);
    q.advance(p.when);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScrambledBurstPopsSorted) {
  // 64 events pushed in scrambled time order over 13 distinct ticks: pops
  // come out sorted, and same-tick events keep their push order.
  EventQueue q;
  constexpr int kN = 64;
  std::vector<int> order;
  for (int i = 0; i < kN; ++i) {
    const Tick t = 1 + static_cast<Tick>((kN - 1 - i) % 13);
    q.push(t, [&order, i] { order.push_back(i); });
  }
  Tick prev = 0;
  while (!q.empty()) {
    auto p = q.pop();
    EXPECT_GE(p.when, prev);
    prev = p.when;
    p.fn();
  }
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  // Same-tick events (same value of (kN-1-i) % 13) must pop in push order.
  for (std::size_t j = 1; j < order.size(); ++j) {
    if ((kN - 1 - order[j]) % 13 == (kN - 1 - order[j - 1]) % 13) {
      EXPECT_LT(order[j - 1], order[j]);
    }
  }
}

TEST(EventQueue, MatchesSortedReferenceUnderRandomOperations) {
  // Differential test against a sorted multiset of (tick, seq) keys. Each
  // callback records its own key, so a pop is checked by what it runs, not
  // only by what it reports. Covers fresh pushes at mixed distances,
  // reserved keys pushed out of order, dead duplicates of live keys,
  // bounded pops, floor advances and the checkpoint bytes.
  using Key = std::pair<Tick, std::uint64_t>;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    std::multiset<Key> ref;
    Tick floor = 0;
    std::uint64_t next_seq = 0;
    std::vector<Key> ran;
    const auto delta = [&rng]() -> Tick {
      switch (rng.below(4)) {
        case 0: return rng.below(3);
        case 1: return rng.below(64);
        case 2: return rng.below(100'000);
        default: return rng.below(Tick{1} << 36);
      }
    };
    const auto record = [&ran](Tick when, std::uint64_t seq) {
      return [&ran, when, seq] { ran.emplace_back(when, seq); };
    };
    const auto push_at_seq = [&](Tick when, std::uint64_t seq) {
      q.push_at_seq(when, seq, record(when, seq));
      ref.emplace(when, seq);
    };
    const auto check_pop = [&](Tick bound) {
      auto p = q.try_pop(bound);
      if (ref.empty() || ref.begin()->first > bound) {
        ASSERT_EQ(p.when, kTickInvalid);
        ASSERT_FALSE(static_cast<bool>(p.fn));
        return;
      }
      const Key want = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_EQ(Key(p.when, p.seq), want);
      ASSERT_TRUE(static_cast<bool>(p.fn));
      p.fn();
      ASSERT_EQ(ran.back(), want);
      floor = p.when;
    };
    for (int step = 0; step < 4000; ++step) {
      switch (rng.below(8)) {
        case 0:
        case 1: {
          const Tick when = floor + delta();
          q.push(when, record(when, next_seq));
          ref.emplace(when, next_seq++);
          break;
        }
        case 2: {  // reserved keys, pushed later and shuffled
          const std::uint64_t n = 1 + rng.below(6);
          const std::uint64_t base = q.reserve_seqs(n);
          ASSERT_EQ(base, next_seq);
          next_seq += n;
          std::vector<std::uint64_t> seqs;
          for (std::uint64_t i = 0; i < n; ++i) {
            if (rng.below(4) != 0) {  // some stay unused holes
              seqs.push_back(base + i);
            }
          }
          for (std::size_t i = seqs.size(); i > 1; --i) {
            std::swap(seqs[i - 1], seqs[rng.below(i)]);
          }
          const Tick when = floor + delta();
          for (std::uint64_t s : seqs) {
            push_at_seq(rng.below(2) == 0 ? when : floor + delta(), s);
          }
          break;
        }
        case 3:  // a dead duplicate of a pending key
          if (!ref.empty()) {
            auto it = ref.begin();
            std::advance(it, static_cast<long>(rng.below(ref.size())));
            push_at_seq(it->first, it->second);
          }
          break;
        case 4:
        case 5:
          check_pop(kTickInvalid);
          break;
        case 6: {
          const Tick front = ref.empty() ? floor : ref.begin()->first;
          check_pop(front + (rng.below(2) == 0 ? 0 : delta()) -
                    (front > 0 && rng.below(3) == 0 ? 1 : 0));
          break;
        }
        default: {  // idle advance, never past a pending event
          const Tick limit = ref.empty() ? floor + delta() : ref.begin()->first;
          const Tick to = floor + rng.below(limit - floor + 1);
          q.advance(to);
          floor = to;
          break;
        }
      }
      if (HasFatalFailure()) {
        return;
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.empty(), ref.empty());
      ASSERT_EQ(q.total_scheduled(), next_seq);
      if (!ref.empty()) {
        ASSERT_EQ(q.next_time(), ref.begin()->first);
      }
      if (step % 97 == 0) {
        ckpt::Writer got;
        q.ckpt_save(got);
        ckpt::Writer want;
        want.tick(floor);
        want.u64(next_seq);
        want.u64(ref.size());
        for (const Key& k : ref) {
          want.tick(k.first);
          want.u64(k.second);
        }
        ASSERT_EQ(got.data(), want.data()) << "at step " << step;
      }
    }
    while (!ref.empty()) {
      check_pop(kTickInvalid);
      if (HasFatalFailure()) {
        return;
      }
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, TryPopRespectsBound) {
  EventQueue q;
  q.push(100, [] {});
  auto none = q.try_pop(99);
  EXPECT_EQ(none.when, kTickInvalid);
  EXPECT_FALSE(static_cast<bool>(none.fn));
  EXPECT_EQ(q.size(), 1u);  // declined pop leaves the queue intact
  auto got = q.try_pop(100);
  EXPECT_EQ(got.when, 100u);
  EXPECT_TRUE(static_cast<bool>(got.fn));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InPlaceCallbacksAreDestroyedExactlyOnce) {
  // A capture with a counting destructor takes InlineFunc's manager path.
  // Built in place in a recycled slab slot, it must be destroyed exactly
  // once: after it runs, or with the queue while still pending. Moved-from
  // husks do not count.
  struct Counted {
    int* dtors;
    int* runs;
    bool live = true;
    Counted(int* d, int* r) : dtors(d), runs(r) {}
    Counted(Counted&& o) noexcept : dtors(o.dtors), runs(o.runs) {
      o.live = false;
    }
    Counted(const Counted&) = delete;
    ~Counted() {
      if (live) {
        ++*dtors;
      }
    }
    void operator()() { ++*runs; }
  };
  int dtors = 0;
  int runs = 0;
  {
    EventQueue q;
    for (Tick t = 1; t <= 4; ++t) {
      q.push(t, [] {});
    }
    while (!q.empty()) {
      q.pop().fn();  // every slot is now on the free list
    }
    q.push(10, Counted(&dtors, &runs));
    q.push_at_seq(20, q.reserve_seqs(1), Counted(&dtors, &runs));
    EXPECT_EQ(dtors, 0);
    q.pop().fn();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(dtors, 1);  // dispatched: destroyed once, with the Popped
    EXPECT_EQ(q.size(), 1u);
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(dtors, 2);  // pending at queue destruction: destroyed once

  Kernel k;
  k.schedule(10, [] {});
  k.run();
  EXPECT_THROW(k.schedule_at_seq(5, k.reserve_seqs(1), [] {}),
               std::logic_error);
}

TEST(Kernel, AdvancesTimeMonotonically) {
  Kernel k;
  std::vector<Tick> times;
  k.schedule(100, [&] { times.push_back(k.now()); });
  k.schedule(50, [&] { times.push_back(k.now()); });
  k.schedule(50, [&] { k.schedule(25, [&] { times.push_back(k.now()); }); });
  k.run();
  EXPECT_EQ(times, (std::vector<Tick>{50, 75, 100}));
}

TEST(Kernel, RunUntilStopsAtBoundary) {
  Kernel k;
  int fired = 0;
  k.schedule(10, [&] { ++fired; });
  k.schedule(20, [&] { ++fired; });
  k.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 15u);
  k.run();
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, ZeroDelayRunsAfterCurrentEvent) {
  Kernel k;
  std::vector<int> order;
  k.schedule(10, [&] {
    order.push_back(0);
    k.schedule(0, [&] { order.push_back(2); });
    order.push_back(1);
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, EventLimitThrows) {
  Kernel k;
  k.set_event_limit(10);
  std::function<void()> loop = [&] { k.schedule(1, loop); };
  k.schedule(1, loop);
  EXPECT_THROW(k.run(), std::runtime_error);
}

TEST(Kernel, EventLimitIsPerRun) {
  // The budget is per run()/run_until() call: a limit that each individual
  // run stays under must never trip across runs. (This regressed once —
  // the counter was cumulative, so enough short runs eventually threw.)
  Kernel k;
  k.set_event_limit(10);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 8; ++i) {
      k.schedule(1, [] {});
    }
    EXPECT_NO_THROW(k.run());
  }
  EXPECT_EQ(k.events_executed(), 40u);

  // And run_until budgets the same way.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      k.schedule(1, [] {});
    }
    EXPECT_NO_THROW(k.run_until(k.now() + 10));
  }
}

TEST(Kernel, SchedulePastThrows) {
  Kernel k;
  k.schedule(10, [] {});
  k.run();
  EXPECT_THROW(k.schedule_abs(5, [] {}), std::logic_error);
}

TEST(Kernel, ScheduleAbsAtNowRunsThisInstant) {
  // when == now() is valid: the event runs after currently-queued work at
  // the same timestamp, exactly like schedule(0, ...).
  Kernel k;
  std::vector<int> order;
  k.schedule(10, [&] {
    order.push_back(0);
    k.schedule_abs(k.now(), [&] { order.push_back(1); });
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, MailboxOrdersByTickSourceSequence) {
  // post() arrival order is scrambled on purpose; delivery must follow the
  // (when, src, seq) key alone.
  Kernel k;
  std::vector<int> order;
  k.post(20, /*src=*/1, /*seq=*/2, [&] { order.push_back(3); });
  k.post(10, /*src=*/2, /*seq=*/1, [&] { order.push_back(2); });
  k.post(10, /*src=*/0, /*seq=*/9, [&] { order.push_back(0); });
  k.post(10, /*src=*/1, /*seq=*/5, [&] { order.push_back(1); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(k.now(), 20u);
}

TEST(Kernel, MailboxInjectsAfterQueuedBeforeScheduledDuring) {
  // At its tick, a mailbox message runs after every event that was already
  // queued there, but before anything those events schedule for the same
  // tick — the injection point is where the destination's clock first
  // reaches the tick.
  Kernel k;
  std::vector<int> order;
  k.schedule(10, [&] {
    order.push_back(0);
    k.schedule(0, [&] { order.push_back(2); });
  });
  k.post(10, 0, 1, [&] { order.push_back(1); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Kernel, DeferredMailboxInvisibleUntilCommit) {
  Kernel k;
  bool fired = false;
  k.set_deferred_mailbox(true);
  k.post(10, 0, 1, [&] { fired = true; });
  EXPECT_TRUE(k.idle());  // staged messages are not pending work yet
  k.run();
  EXPECT_FALSE(fired);
  k.commit_mailbox();
  EXPECT_FALSE(k.idle());
  EXPECT_EQ(k.next_event_time(), 10u);
  k.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(k.now(), 10u);
}

TEST(Clock, CycleConversions) {
  Clock c(15000);  // 66.67 MHz
  EXPECT_EQ(c.to_ticks(4), 60000u);
  EXPECT_EQ(c.to_cycles(60000), 4u);
  EXPECT_EQ(c.until_next_edge(0), 0u);
  EXPECT_EQ(c.until_next_edge(1), 14999u);
  EXPECT_EQ(c.until_next_edge(15000), 0u);
  EXPECT_NEAR(c.mhz(), 66.67, 0.01);
}

TEST(Coro, DelayResumesAtRightTime) {
  Kernel k;
  Tick seen = 0;
  spawn([](Kernel* kp, Tick* out) -> Co<void> {
    co_await delay(*kp, 123);
    *out = kp->now();
  }(&k, &seen));
  k.run();
  EXPECT_EQ(seen, 123u);
}

TEST(Coro, NestedAwaitPropagatesValues) {
  Kernel k;
  int result = 0;
  spawn([](Kernel* kp, int* out) -> Co<void> {
    auto inner = [](Kernel* kk) -> Co<int> {
      co_await delay(*kk, 5);
      co_return 21;
    };
    const int a = co_await inner(kp);
    const int b = co_await inner(kp);
    *out = a + b;
  }(&k, &result));
  k.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(k.now(), 10u);
}

TEST(Coro, ExceptionPropagatesThroughCo) {
  Kernel k;
  bool caught = false;
  spawn([](Kernel* kp, bool* flag) -> Co<void> {
    auto bad = [](Kernel* kk) -> Co<void> {
      co_await delay(*kk, 1);
      throw std::runtime_error("boom");
    };
    try {
      co_await bad(kp);
    } catch (const std::runtime_error&) {
      *flag = true;
    }
  }(&k, &caught));
  k.run();
  EXPECT_TRUE(caught);
}

TEST(OneShot, WakesAllWaitersAndStaysFired) {
  Kernel k;
  OneShot ev(k);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    spawn([](OneShot* e, int* n) -> Co<void> {
      co_await *e;
      ++*n;
    }(&ev, &woken));
  }
  k.schedule(10, [&] { ev.fire(); });
  k.run();
  EXPECT_EQ(woken, 3);
  // Late waiter resumes immediately.
  spawn([](OneShot* e, int* n) -> Co<void> {
    co_await *e;
    ++*n;
  }(&ev, &woken));
  k.run();
  EXPECT_EQ(woken, 4);
}

TEST(Signal, OnlyWakesCurrentWaiters) {
  Kernel k;
  Signal sig(k);
  int woken = 0;
  spawn([](Signal* s, int* n) -> Co<void> {
    co_await *s;
    ++*n;
    co_await *s;
    ++*n;
  }(&sig, &woken));
  k.schedule(10, [&] { sig.pulse(); });
  k.run();
  EXPECT_EQ(woken, 1);  // second wait needs a second pulse
  k.schedule(10, [&] { sig.pulse(); });
  k.run();
  EXPECT_EQ(woken, 2);
}

TEST(Signal, UntilChecksPredicateOnEveryPulse) {
  Kernel k;
  Signal sig(k);
  int x = 0;
  bool done = false;
  spawn([](Signal* s, int* xp, bool* d) -> Co<void> {
    co_await s->until([xp] { return *xp >= 3; });
    *d = true;
  }(&sig, &x, &done));
  for (Tick t = 1; t <= 5; ++t) {
    k.schedule(t * 10, [&] {
      ++x;
      sig.pulse();
    });
  }
  k.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(x, 5);
}

TEST(Future, DeliversValueToMultipleConsumers) {
  Kernel k;
  Promise<int> p(k);
  int sum = 0;
  for (int i = 0; i < 2; ++i) {
    spawn([](Future<int> f, int* out) -> Co<void> {
      *out += co_await f.get();
    }(p.get_future(), &sum));
  }
  k.schedule(5, [&] { p.set_value(21); });
  k.run();
  EXPECT_EQ(sum, 42);
}

TEST(Channel, FifoOrderAndDirectHandoff) {
  Kernel k;
  Channel<int> ch(k);
  std::vector<int> got;
  spawn([](Channel<int>* c, std::vector<int>* out) -> Co<void> {
    for (int i = 0; i < 4; ++i) {
      out->push_back(co_await c->pop());
    }
  }(&ch, &got));
  ch.push(1);
  ch.push(2);
  k.schedule(10, [&] { ch.push(3); });
  k.schedule(20, [&] { ch.push(4); });
  k.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Channel, TryPopDoesNotStealFromWaiters) {
  Kernel k;
  Channel<int> ch(k);
  int got = -1;
  spawn([](Channel<int>* c, int* out) -> Co<void> {
    *out = co_await c->pop();
  }(&ch, &got));
  k.run();
  ch.push(7);
  // The waiter owns the item even before it resumes.
  EXPECT_FALSE(ch.try_pop().has_value());
  k.run();
  EXPECT_EQ(got, 7);
}

TEST(Semaphore, MutualExclusionAndFifoWakeup) {
  Kernel k;
  Semaphore sem(k, 1);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    spawn([](Kernel* kp, Semaphore* s, std::vector<int>* out,
             int id) -> Co<void> {
      co_await s->acquire();
      out->push_back(id);
      co_await delay(*kp, 10);
      s->release();
    }(&k, &sem, &order, i));
  }
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(k.now(), 30u);
  EXPECT_EQ(sem.available(), 1u);
}

TEST(Stats, AccumulatorAndHistogram) {
  Accumulator a;
  a.sample(1.0);
  a.sample(3.0);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);

  Histogram h;
  h.sample(1);
  h.sample(2);
  h.sample(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_GE(h.percentile(100), 1000u);
}

TEST(Stats, HistogramPercentileEdges) {
  Histogram empty;
  EXPECT_EQ(empty.percentile(0), 0u);
  EXPECT_EQ(empty.percentile(50), 0u);
  EXPECT_EQ(empty.percentile(100), 0u);

  Histogram h;
  h.sample(2);
  h.sample(1000);
  EXPECT_EQ(h.percentile(0), 2u);     // p=0 is the minimum
  EXPECT_EQ(h.percentile(-5), 2u);    // out-of-range p clamps
  EXPECT_EQ(h.percentile(100), 1000u);
  EXPECT_EQ(h.percentile(200), 1000u);

  // A single exact value must round-trip at every percentile, not be
  // rounded up to its bucket's power-of-two boundary.
  Histogram one;
  one.sample(1000);
  EXPECT_EQ(one.percentile(50), 1000u);
  EXPECT_EQ(one.percentile(100), 1000u);
}

TEST(Stats, RegistryDumpJson) {
  StatRegistry reg;
  reg.set("a.b", 1.5);
  reg.set("c", 3);
  std::ostringstream os;
  reg.dump_json(os);
  EXPECT_EQ(os.str(), "{\n  \"a.b\": 1.5,\n  \"c\": 3\n}\n");
}

TEST(Stats, RegistryShardedDumpMatchesUnsharded) {
  // Whatever the split between shards and direct set() calls, and whatever
  // the append order, dump_json must emit the same canonical bytes as an
  // unsharded registry holding the same final values.
  StatRegistry plain;
  plain.set("a", 1);
  plain.set("m.x", 2);
  plain.set("n0.z", 3);
  plain.set("n1.q", 4);
  std::ostringstream want;
  plain.dump_json(want);

  StatRegistry sharded;
  StatRegistry::Shard& s0 = sharded.open_shard();
  StatRegistry::Shard& s1 = sharded.open_shard();
  s1.set("n1.q", 4);  // out of name order, across shards
  s0.set("n0.z", 3);
  sharded.set("m.x", 2);
  s0.set("a", 1);
  std::ostringstream got;
  sharded.dump_json(got);
  EXPECT_EQ(got.str(), want.str());

  // dump() agrees on ordering too.
  std::ostringstream plain_txt;
  std::ostringstream sharded_txt;
  plain.dump(plain_txt);
  sharded.dump(sharded_txt);
  EXPECT_EQ(sharded_txt.str(), plain_txt.str());
}

TEST(Stats, RegistryShardDuplicateResolution) {
  // Overlay set() beats shards; among shard writes the last wins.
  StatRegistry reg;
  StatRegistry::Shard& s0 = reg.open_shard();
  StatRegistry::Shard& s1 = reg.open_shard();
  s0.set("dup.shards", 1);
  s1.set("dup.shards", 2);  // later shard wins
  s0.set("dup.overlay", 10);
  reg.set("dup.overlay", 20);  // overlay wins regardless of timing
  std::ostringstream os;
  reg.dump_json(os);
  EXPECT_EQ(os.str(),
            "{\n  \"dup.overlay\": 20,\n  \"dup.shards\": 2\n}\n");
  // Lookups materialize to the same resolution as the dump.
  EXPECT_DOUBLE_EQ(reg.get("dup.shards"), 2);
  EXPECT_DOUBLE_EQ(reg.get("dup.overlay"), 20);
}

TEST(Stats, RegistryShardMaterializesForLookups) {
  StatRegistry reg;
  StatRegistry::Shard& sh = reg.open_shard();
  sh.set("lazy", 5);
  EXPECT_TRUE(reg.contains("lazy"));
  EXPECT_DOUBLE_EQ(reg.get("lazy"), 5);
  reg.add("lazy", 1.5);
  EXPECT_DOUBLE_EQ(reg.get("lazy"), 6.5);
  EXPECT_EQ(reg.all().count("lazy"), 1u);
  // Dump after materialization still emits the merged value once.
  std::ostringstream os;
  reg.dump_json(os);
  EXPECT_EQ(os.str(), "{\n  \"lazy\": 6.5\n}\n");
}

TEST(Stats, BusyTrackerOccupancy) {
  BusyTracker b;
  b.add_busy(25);
  b.add_busy(25);
  EXPECT_DOUBLE_EQ(b.occupancy(100), 0.5);
  EXPECT_DOUBLE_EQ(b.occupancy(0), 0.0);
}

TEST(Config, TypedAccessAndParsing) {
  auto cfg = Config::from_args({"a=1", "b=2.5", "c=true", "d=hello"});
  EXPECT_EQ(cfg.get_u64("a", 0), 1u);
  EXPECT_DOUBLE_EQ(cfg.get_double("b", 0), 2.5);
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_EQ(cfg.get_string("d"), "hello");
  EXPECT_EQ(cfg.get_u64("missing", 42), 42u);
  EXPECT_THROW(Config::from_args({"novalue"}), std::invalid_argument);
  EXPECT_THROW((void)Config::from_args({"x=maybe"}).get_bool("x", false),
               std::invalid_argument);
}

TEST(Config, MergeOverrides) {
  Config base;
  base.set_u64("a", 1);
  base.set_u64("b", 2);
  Config over;
  over.set_u64("b", 3);
  base.merge(over);
  EXPECT_EQ(base.get_u64("a", 0), 1u);
  EXPECT_EQ(base.get_u64("b", 0), 3u);
}

TEST(Config, UnreadKeysAreTheOnesNothingAskedFor) {
  const auto cfg = Config::from_args({"count=5", "cuont=5", "seed=1"});
  EXPECT_EQ(cfg.unread_keys(),
            (std::vector<std::string>{"count", "cuont", "seed"}));
  (void)cfg.get_u64("count", 0);
  (void)cfg.contains("seed");
  (void)cfg.get_string("absent");  // asking for an unset key is harmless
  EXPECT_EQ(cfg.unread_keys(), std::vector<std::string>{"cuont"});
}

TEST(Rng, DeterministicAndUniform) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  Rng c(43);
  EXPECT_NE(a.next(), c.next());

  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

class HistogramBucketTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramBucketTest, SampleLandsInCorrectBucket) {
  Histogram h;
  const std::uint64_t v = GetParam();
  h.sample(v);
  // Bucket i covers (2^(i-1), 2^i]; bucket 0 covers 0..1.
  const std::size_t expected =
      v <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(v - 1));
  const auto& b = h.buckets();
  ASSERT_GT(b.size(), expected);
  EXPECT_EQ(b[expected], 1u);
  std::uint64_t total = 0;
  for (const auto count : b) {
    total += count;
  }
  EXPECT_EQ(total, 1u);
}

INSTANTIATE_TEST_SUITE_P(Powers, HistogramBucketTest,
                         ::testing::Values(0, 1, 2, 3, 4, 7, 8, 9, 1023,
                                           1024, 1025, 1u << 20));

}  // namespace
}  // namespace sv::sim
