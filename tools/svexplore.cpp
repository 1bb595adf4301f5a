// svexplore: systematic fault-scenario exploration for the reliable
// channel (DESIGN.md §14, EXPERIMENTS.md Ext-Q).
//
// Enumerates scripted packet-drop patterns against the reliable-ring
// workload — every node streams verified payloads around a ring over
// msg::ReliableChannel — and reports either the minimal pattern that
// breaks the channel's exactly-once / in-order / give-up contract, or a
// proof that no pattern of at most max_drops drops (within the explored
// opportunity horizon) can break it. The search is deterministic: same
// arguments, same answer, run to run and machine to machine.
//
// Usage:
//   svexplore [--snapshot=FILE] [key=value ...]
//
// With --snapshot (a checkpoint written by checkpoint_reliable_ring or
// ckpt_replay_test's committed corpus), the workload spec comes from the
// snapshot, every candidate run first replays to the capture tick and
// byte-verifies against the file, and only drop placements *after* the
// checkpoint are explored.
//
// Keys (standalone mode): nodes count bytes window timeout_us give_up
//   deadline_ms fault_seed — the ring spec; and the search bounds
//   max_drops (default 2) max_opportunities (0 = observed horizon)
//   max_runs (default 2000). A key svexplore does not read (a typo such as
//   cuont=5, or a ring key next to --snapshot=) is an error, exit code 2.
//
// write_snapshot=FILE at=TICK: instead of exploring, run the fault-free
// ring to the first epoch boundary at/after TICK, write the checkpoint
// (the file --snapshot= later consumes), and exit.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/scenario.hpp"
#include "sim/config.hpp"

using namespace sv;

int main(int argc, char** argv) {
  std::string snapshot_path;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--snapshot=", 0) == 0) {
      snapshot_path = a.substr(std::strlen("--snapshot="));
    } else {
      args.push_back(a);
    }
  }

  sim::Config cfg;
  try {
    cfg = sim::Config::from_args(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svexplore: %s\n", e.what());
    return 2;
  }

  ckpt::ExploreParams ep;
  try {
    ep.max_drops =
        static_cast<std::uint32_t>(cfg.get_u64_in("max_drops", 2, 0, 8));
    ep.max_opportunities = cfg.get_u64("max_opportunities", 0);
    ep.max_runs = cfg.get_u64("max_runs", 2000);
    const std::string write_path = cfg.get_string("write_snapshot", "");
    const sim::Tick at = cfg.get_u64("at", 0);
    ckpt::RingSpec spec;
    ckpt::Snapshot snap;
    const ckpt::Snapshot* resume = nullptr;
    if (snapshot_path.empty()) {
      spec = ckpt::RingSpec::from_keys(cfg);
    }
    // Every key svexplore understands has now been read.
    if (const auto unread = cfg.unread_keys(); !unread.empty()) {
      throw std::invalid_argument("unknown key '" + unread.front() + "'");
    }
    if (!snapshot_path.empty()) {
      snap = ckpt::Snapshot::load_file(snapshot_path);
      spec = ckpt::RingSpec::from_config(snap.config);
      resume = &snap;
      std::printf("svexplore: exploring from %s (tick %llu)\n",
                  snapshot_path.c_str(),
                  static_cast<unsigned long long>(snap.tick));
    }

    if (!write_path.empty()) {
      const ckpt::Snapshot out = ckpt::checkpoint_reliable_ring(spec, at);
      out.save_file(write_path);
      std::printf("svexplore: checkpoint at tick %llu (%zu chunks) -> %s\n",
                  static_cast<unsigned long long>(out.tick),
                  out.chunks().size(), write_path.c_str());
      return 0;
    }

    const ckpt::ExploreResult res =
        ckpt::explore(ckpt::reliable_ring_scenario(spec, resume), ep);

    std::printf("svexplore: %llu runs, %llu dedup-pruned, "
                "%llu horizon-pruned\n",
                static_cast<unsigned long long>(res.runs),
                static_cast<unsigned long long>(res.pruned_dedup),
                static_cast<unsigned long long>(res.pruned_horizon));
    if (res.found) {
      std::string pattern;
      for (const std::uint64_t i : res.minimal) {
        pattern += (pattern.empty() ? "" : ",") + std::to_string(i);
      }
      std::printf("VIOLATION: minimal drop pattern {%s}%s\n  %s\n",
                  pattern.c_str(),
                  res.baseline_violation ? " (baseline, no drops)" : "",
                  res.detail.c_str());
      return 1;
    }
    if (res.exhausted) {
      std::printf("PROVEN: no pattern of <= %u drops breaks the contract "
                  "(bound searched exhaustively)\n",
                  ep.max_drops);
      return 0;
    }
    std::printf("INCONCLUSIVE: run budget (%llu) exhausted before the "
                "bound was covered\n",
                static_cast<unsigned long long>(ep.max_runs));
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svexplore: %s\n", e.what());
    return 2;
  }
}
