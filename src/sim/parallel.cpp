#include "sim/parallel.hpp"

#include <algorithm>
#include <stdexcept>

namespace sv::sim {

ParallelKernel::ParallelKernel(std::vector<Kernel*> domains, unsigned threads,
                               Tick lookahead)
    : domains_(std::move(domains)), lookahead_(lookahead) {
  if (domains_.empty()) {
    throw std::invalid_argument("ParallelKernel: no domains");
  }
  if (lookahead_ == 0) {
    throw std::invalid_argument("ParallelKernel: lookahead must be >= 1");
  }
  active_.reserve(domains_.size());
  woken_.reserve(domains_.size());
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    domains_[d]->set_deferred_mailbox(true);
    domains_[d]->set_post_notify([this, d] {
      // At most one firing per domain per epoch (the staged buffer only
      // empties at a barrier), so the wake list needs no deduplication.
      const std::lock_guard<std::mutex> lock(wake_mu_);
      woken_.push_back(d);
    });
    // Everyone starts active: nodes schedule their service loops during
    // construction, and a truly idle domain parks after the first epoch.
    active_.push_back(d);
  }
  const unsigned n = std::clamp<unsigned>(
      threads, 1U, static_cast<unsigned>(domains_.size()));
  workers_.reserve(n);
  for (unsigned id = 0; id < n; ++id) {
    workers_.emplace_back([this, id] { worker_main(id); });
  }
}

ParallelKernel::~ParallelKernel() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ParallelKernel::worker_main(unsigned id) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
    }
    // Outside the lock: workers partition the active list by the fixed
    // rule "domain d runs on worker d % threads" — the same assignment
    // the run-everything scheme used, so any per-thread effect stays
    // reproducible — and active_/epoch_end_ were published under mu_
    // before generation_ bumped.
    std::exception_ptr err;
    try {
      const std::size_t stride = workers_.size();
      for (const std::size_t d : active_) {
        if (d % stride == id) {
          domains_[d]->run_until(epoch_end_);
        }
      }
    } catch (...) {
      err = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (err && !error_) {
        error_ = err;
      }
      if (--running_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

void ParallelKernel::run_epoch() {
  epoch_end_ = epoch_start_ + lookahead_ - 1;
  {
    std::unique_lock<std::mutex> lock(mu_);
    running_ = static_cast<unsigned>(workers_.size());
    ++generation_;
    start_cv_.notify_all();
    done_cv_.wait(lock, [&] { return running_ == 0; });
    if (error_) {
      auto err = error_;
      error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
  // All workers are parked (the wait above is the happens-before edge), so
  // the coordinator may touch every domain. Only domains that ran this
  // epoch or received mail can have changed state: commit exactly those
  // mailboxes and rebuild the active list from them — O(active + woken),
  // never O(domains).
  std::vector<std::size_t> woken;
  {
    const std::lock_guard<std::mutex> lock(wake_mu_);
    woken.swap(woken_);
  }
  std::sort(woken.begin(), woken.end());

  std::vector<std::size_t> next;
  next.reserve(active_.size() + woken.size());
  auto a = active_.begin();
  auto w = woken.begin();
  const auto visit = [&](std::size_t d) {
    domains_[d]->commit_mailbox();
    if (!domains_[d]->idle()) {
      next.push_back(d);
    }
  };
  while (a != active_.end() || w != woken.end()) {
    if (w == woken.end() || (a != active_.end() && *a <= *w)) {
      if (w != woken.end() && *w == *a) {
        ++w;  // active domain that also got mail: visit once
      }
      visit(*a++);
    } else {
      visit(*w++);
    }
  }
  active_.swap(next);

  now_ = epoch_end_;
  epoch_start_ += lookahead_;
}

void ParallelKernel::quiesce() {
  for (Kernel* d : domains_) {
    if (d->now() < now_) {
      // Parked domains are idle by construction, so this only advances
      // the clock and the event queue's floor — no events can run.
      d->run_until(now_);
    }
  }
}

bool ParallelKernel::run_epochs_until(const std::function<bool()>& pred,
                                      Tick deadline) {
  // Between calls, callers may have scheduled work directly onto a parked
  // domain's kernel (drivers starting coroutines do exactly that) — the
  // post-notify hook only covers cross-domain post(). One O(domains)
  // rescan per call (not per epoch) re-admits them; mid-run, parked
  // domains are only ever reachable via post(), which the hook covers.
  active_.clear();
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    if (!domains_[d]->idle()) {
      active_.push_back(d);
    }
  }
  const auto finish = [this](bool result) {
    quiesce();
    return result;
  };
  if (pred()) {
    return finish(true);
  }
  while (epoch_start_ <= deadline) {
    run_epoch();
    if (pred()) {
      return finish(true);
    }
    if (idle()) {
      return finish(false);
    }
  }
  return finish(false);
}

}  // namespace sv::sim
