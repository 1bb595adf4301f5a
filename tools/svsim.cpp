// svsim: command-line driver for the simulated StarT-Voyager machine.
//
// Runs a parameterized workload and dumps machine-wide statistics —
// the quickest way to poke at configuration questions ("what does the bus
// occupancy look like at 8 nodes?", "how many bus retries does a racing
// S-COMA consumer cause?") without writing a program.
//
// Usage:
//   svsim <workload> [key=value ...]
//
// Every key is read and range-checked before the machine is built; a key
// that nothing reads (a typo such as cuont=5) or a value out of range
// (net=idael) is an error, exit code 2.
//
// Workloads (src/app/workloads.hpp defines them and reads their keys):
//   msg, express   all-to-all Basic / Express messaging (count, bytes<=88)
//   xfer           block transfer (approach, bytes, consume)
//   dma            DMA write (bytes)
//   scoma, numa    random shared-memory traffic (ops, words, seed)
//   reliable       ReliableChannel ring (count, bytes<=72, window,
//                  timeout_us, give_up)
//   app.stencil    Jacobi halo exchange (nx, ny, iters, point_cycles)
//   app.allreduce  ring-allreduce sweep (min_elems, max_elems, iters)
//   app.kv         key-value request/reply (servers, requests, keys,
//                  value_bytes, seed, op_cycles)
// app.* run real parallel programs through the SMPI-style World/Comm API:
//   ranks=N (0 = one per node) transport=msg|shm|reliable app.shm=numa|scoma,
//   and the reliable transport takes window/timeout_us/give_up.
//
// Common keys: nodes=N net=fattree|ideal radix=K stats=0|1
//   stats_format=text|json deadline_ms=N trace=FILE trace_buf=N
//   trace_stream=FILE (stream Chrome JSON incrementally: bounded memory
//   for arbitrarily long traces, no ring overwrites in the file;
//   sequential machines only — a partitioned run has no global record
//   order until the merge)
//
// Parallel execution: threads=N partitions the machine into one event
// domain per node on N worker threads (results are bit-identical to
// threads=0). Partitioning needs the ideal network, so threads>0 defaults
// net=ideal; combining threads>0 with net=fattree is an error. The xfer
// workload drives the machine through a sequential-only harness and
// rejects threads>0.
//
// Fault injection (all workloads): fault.drop_rate=P fault.corrupt_rate=P
//   fault.link_down_rate=P fault.router_stall_rate=P fault.starve_rate=P
//   fault.rx_overflow_rate=P fault.seed=N (see fault::Plan::from_config).
//   Unreliable workloads will typically time out or hang under drops; the
//   `reliable` workload and reliable-transport app.* workloads recover.
//
// Checkpointing (DESIGN.md §14):
//   --checkpoint-at=TICK [--checkpoint-out=FILE]   snapshot at the first
//       epoch boundary at/after TICK (picoseconds), then keep running
//   --checkpoint-every=TICKS [--checkpoint-out=PREFIX]   periodic
//       snapshots PREFIX.<tick>.svck — the raw material for bisecting a
//       failing tick range (EXPERIMENTS.md Ext-Q)
//   --restore=FILE   rebuild the run from the snapshot's embedded config,
//       replay to its capture tick, byte-verify every component chunk
//       against the file, then continue to completion. Extra key=value
//       args are rejected: the snapshot is the configuration. The snapshot
//       records the fast-path mode (fastpath=on|off, see SV_NO_FASTPATH);
//       restoring it in the other mode is an error, exit code 2, because
//       pending bus-bypass events are keyed differently in each mode.
//   (key=value spellings ckpt.at / ckpt.every / ckpt.out also work.)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "app/workloads.hpp"
#include "ckpt/capture.hpp"
#include "sim/fastpath.hpp"
#include "sys/stats_dump.hpp"
#include "trace/chrome_sink.hpp"

using namespace sv;

namespace {

/// The snapshot config key that records the fast-path mode. It is not a
/// workload key: no workload reads it.
constexpr const char* kModeKey = "fastpath";

/// The driver keys every workload shares, read before the machine is built.
struct DriverOptions {
  std::uint64_t deadline_ms = 2000;
  sim::Tick ckpt_at = 0;
  sim::Tick ckpt_every = 0;
  std::string ckpt_out;
  bool stats = false;
  bool stats_json = false;

  static DriverOptions from_config(const sim::Config& cfg) {
    DriverOptions o;
    o.deadline_ms = cfg.get_u64_in("deadline_ms", o.deadline_ms, 1, 3'600'000);
    o.ckpt_at = cfg.get_u64("ckpt.at", 0);
    o.ckpt_every = cfg.get_u64("ckpt.every", 0);
    o.ckpt_out = cfg.get_string("ckpt.out", "svsim.svck");
    o.stats = cfg.get_bool("stats", false);
    o.stats_json =
        cfg.get_choice("stats_format", "text", {"text", "json"}) == 1;
    return o;
  }
};

/// The driver boilerplate every workload shares: the run-until-deadline
/// loop with its checkpoint pauses and timeout diagnostic, elapsed
/// simulated time, and the stats dump — which lives here so workloads with
/// extra counters (the app runtime) can append them while the owning
/// objects are still alive.
class Harness {
 public:
  Harness(sys::Machine& machine, const sim::Config& cfg, DriverOptions opts)
      : machine_(machine), cfg_(cfg), opts_(std::move(opts)) {}

  [[nodiscard]] sys::Machine& machine() { return machine_; }

  /// App workloads register their World so its runtime state rides along
  /// in every capture; restore mode registers the loaded snapshot so the
  /// replay is byte-verified at the capture tick.
  void set_world(const app::World* world) { world_ = world; }
  void set_restore(const ckpt::Snapshot* snap) { restore_ = snap; }
  void set_workload(std::string name) { workload_ = std::move(name); }
  /// The fast-path mode line ("fastpath=on\n") snapshots carry; empty when
  /// replaying an older snapshot that has none.
  void set_mode_line(std::string line) { mode_line_ = std::move(line); }

  /// Drive the machine until `ready`; on deadline expiry prints the
  /// timeout diagnostic and returns false. Pauses at every scheduled
  /// checkpoint/verify tick on the way (epoch boundaries, so the pause
  /// points — and the snapshots — are identical for every threads=).
  bool drive(const std::function<bool()>& ready) {
    t0_ = machine_.now();
    const sim::Tick deadline =
        machine_.now() + opts_.deadline_ms * sim::kMillisecond;

    const sim::Tick every = opts_.ckpt_every;
    sim::Tick next_save = opts_.ckpt_at != 0 ? opts_.ckpt_at : every;
    sim::Tick verify_at = restore_ != nullptr ? restore_->tick : 0;

    while (true) {
      sim::Tick stop = 0;  // 0 = no pause pending
      if (next_save != 0) {
        stop = next_save;
      }
      if (verify_at != 0 && (stop == 0 || verify_at < stop)) {
        stop = verify_at;
      }
      if (stop == 0) {
        break;
      }
      machine_.run_epochs_until(
          [&] { return ready() || machine_.now() >= stop; }, deadline);
      if (machine_.now() < stop) {
        break;  // workload finished (or deadline hit) before the tick
      }
      if (verify_at != 0 && machine_.now() >= verify_at) {
        try {
          ckpt::Snapshot::verify(*restore_, capture());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "svsim: restore verify FAILED: %s\n",
                       e.what());
          return false;
        }
        std::printf("restore: replayed to tick %llu, %zu chunks verified "
                    "byte-identical\n",
                    static_cast<unsigned long long>(restore_->tick),
                    restore_->chunks().size());
        verify_at = 0;
      }
      if (next_save != 0 && machine_.now() >= next_save) {
        save_checkpoint();
        next_save = every != 0 ? machine_.now() + every : 0;
      }
    }

    if (!sys::run_until(machine_, ready, deadline)) {
      std::fprintf(stderr, "svsim: timed out\n");
      return false;
    }
    return true;
  }

  /// The run configuration a snapshot embeds: the workload name, the
  /// fast-path mode line, and every key=value except the ckpt.* directives
  /// themselves (a restored run must not re-checkpoint). A restored run's
  /// config also holds the snapshot's own workload and mode lines, which
  /// are already written first.
  [[nodiscard]] std::string config_text() const {
    std::string out = "workload=" + workload_ + "\n" + mode_line_;
    for (const auto& [key, value] : cfg_.all()) {
      if (key.rfind("ckpt.", 0) == 0 || key == "workload" ||
          key == kModeKey) {
        continue;
      }
      out += key + "=" + value + "\n";
    }
    return out;
  }

  [[nodiscard]] ckpt::Snapshot capture() const {
    return ckpt::capture(machine_, config_text(), world_);
  }

  void save_checkpoint() const {
    std::string path = opts_.ckpt_out;
    if (opts_.ckpt_every != 0) {
      path += "." + std::to_string(machine_.now()) + ".svck";
    }
    const ckpt::Snapshot snap = capture();
    snap.save_file(path);
    std::printf("checkpoint: tick %llu, %zu chunks -> %s\n",
                static_cast<unsigned long long>(snap.tick),
                snap.chunks().size(), path.c_str());
  }

  /// Simulated microseconds between the last drive() start and now.
  [[nodiscard]] double elapsed_us() const {
    return static_cast<double>(machine_.now() - t0_) / 1e6;
  }

  /// Honor stats=0|1 / stats_format=text|json, letting the caller append
  /// extra counters to the registry first. Idempotent: the first call
  /// (typically from a workload that has extra counters to add) wins and
  /// the fallback call in main() becomes a no-op.
  void dump_stats(
      const std::function<void(sim::StatRegistry&)>& extra = nullptr) {
    if (stats_dumped_ || !opts_.stats) {
      return;
    }
    stats_dumped_ = true;
    auto reg = sys::collect_stats(machine_);
    if (extra) {
      extra(reg);
    }
    if (opts_.stats_json) {
      reg.dump_json(std::cout);
    } else {
      std::printf("\n--- machine statistics ---\n");
      reg.dump(std::cout);
    }
  }

 private:
  sys::Machine& machine_;
  const sim::Config& cfg_;
  DriverOptions opts_;
  sim::Tick t0_ = 0;
  bool stats_dumped_ = false;
  std::string workload_;
  std::string mode_line_;
  const app::World* world_ = nullptr;
  const ckpt::Snapshot* restore_ = nullptr;
};

/// A workload body, built by make_workload once every key it uses has been
/// read from the config.
using Workload = std::function<int(Harness&)>;

using Start = std::function<std::unique_ptr<app::WorkloadRun>(sys::Machine&)>;
using Summary = std::function<int(Harness&, app::WorkloadRun&)>;

/// The body of a workload with per-node drivers: start them, drive them
/// to completion, then print the summary line.
Workload driven(Start start, Summary summary) {
  return [start, summary](Harness& h) {
    const auto run = start(h.machine());
    h.set_world(run->world.get());
    if (!h.drive([&] { return run->finished(); })) {
      return 1;
    }
    return summary(h, *run);
  };
}

/// Read and check every key the named workload uses (src/app/workloads.hpp)
/// and return its body. Throws for an unknown workload or a rejected value.
Workload make_workload(const std::string& name, const sim::Config& cfg) {
  if (name == "msg" || name == "express") {
    const auto w = app::MsgWorkload::from_config(cfg, name == "express");
    return driven([w](sys::Machine& m) { return w.start(m); },
                  [w](Harness& h, app::WorkloadRun&) {
                    const std::size_t nodes = h.machine().size();
                    const double us = h.elapsed_us();
                    const double total_bytes = static_cast<double>(
                        nodes * w.count * (w.express ? 5 : w.bytes));
                    std::printf("%s all-to-all: %zu nodes x %llu msgs in "
                                "%.1f us (%.1f MB/s aggregate payload)\n",
                                w.express ? "express" : "basic", nodes,
                                static_cast<unsigned long long>(w.count), us,
                                total_bytes / us);
                    return 0;
                  });
  }
  if (name == "xfer") {
    const auto w = app::XferWorkload::from_config(cfg);
    return [w](Harness& h) {
      const auto res = w.run(h.machine());
      std::printf(
          "approach %d, %u bytes: notify %.2f us (%.1f MB/s)%s, "
          "tx aP %.2f us / tx sP %.2f us / rx sP %.2f us, %s\n",
          w.approach, w.bytes, static_cast<double>(res.latency()) / 1e6,
          res.bandwidth_mbps(w.bytes),
          w.consume ? (", consumed " +
                       std::to_string(
                           static_cast<double>(res.consume_time - res.start) /
                           1e6) +
                       " us")
                          .c_str()
                    : "",
          static_cast<double>(res.sender_ap_busy) / 1e6,
          static_cast<double>(res.sender_sp_busy) / 1e6,
          static_cast<double>(res.receiver_sp_busy) / 1e6,
          res.ok ? "verified" : "VERIFY FAILED");
      return res.ok ? 0 : 1;
    };
  }
  if (name == "dma") {
    const auto w = app::DmaWorkload::from_config(cfg);
    return driven([w](sys::Machine& m) { return w.start(m); },
                  [w](Harness& h, app::WorkloadRun&) {
                    const double us = h.elapsed_us();
                    std::printf("dma: %llu bytes in %.1f us = %.1f MB/s\n",
                                static_cast<unsigned long long>(w.bytes), us,
                                static_cast<double>(w.bytes) / us);
                    return 0;
                  });
  }
  if (name == "scoma" || name == "numa") {
    const auto w = app::ShmWorkload::from_config(cfg, name == "scoma");
    return driven([w](sys::Machine& m) { return w.start(m); },
                  [w, name](Harness& h, app::WorkloadRun&) {
                    std::printf(
                        "%s: %llu ops/node over %llu shared words in %.1f "
                        "us\n",
                        name.c_str(), static_cast<unsigned long long>(w.ops),
                        static_cast<unsigned long long>(w.words),
                        h.elapsed_us());
                    return 0;
                  });
  }
  if (name == "reliable") {
    const auto w = app::RingWorkload::from_config(cfg);
    const auto start = [w](sys::Machine& m) {
      return w.start(m, [machine = &m](sim::NodeId n, sim::NodeId peer) {
        std::fprintf(stderr, "svsim: n%u gave up on peer n%u\n", n, peer);
        machine->node(n).niu().ctrl().shutdown_tx_queue(sys::Node::kTxUser0);
      });
    };
    return driven(start, [w](Harness& h, app::WorkloadRun& run) {
      if (const std::string bad = run.violation(); !bad.empty()) {
        std::fprintf(stderr, "svsim: %s\n", bad.c_str());
        return 1;
      }
      sys::Machine& machine = h.machine();
      const double us = h.elapsed_us();
      std::uint64_t retx = 0;
      std::uint64_t corrupt = 0;
      for (const auto& ch : run.channels) {
        retx += ch->stats().retransmitted.value();
        corrupt += ch->stats().corrupt_rejected.value();
      }
      const auto audit = machine.network().audit();
      std::printf(
          "reliable ring: %zu nodes x %llu msgs x %llu B in %.1f us "
          "(%.1f MB/s payload), %llu retransmits, %llu crc rejects, "
          "%llu/%llu packets dropped\n",
          machine.size(), static_cast<unsigned long long>(w.count),
          static_cast<unsigned long long>(w.bytes), us,
          static_cast<double>(machine.size() * w.count * w.bytes) / us,
          static_cast<unsigned long long>(retx),
          static_cast<unsigned long long>(corrupt),
          static_cast<unsigned long long>(audit.dropped),
          static_cast<unsigned long long>(audit.injected));
      return 0;
    });
  }
  if (name.rfind("app.", 0) == 0) {
    const auto w = app::AppWorkload::from_config(cfg, name);
    return driven(
        [w](sys::Machine& m) { return w.start(m); },
        [name](Harness& h, app::WorkloadRun& run) {
          std::printf("%s over %s: %zu ranks on %zu nodes, %llu ops, "
                      "checksum %.10g, %llu errors in %.1f us\n",
                      name.c_str(), run.world->transport(0).kind(),
                      run.world->nranks(), h.machine().size(),
                      static_cast<unsigned long long>(run.app.ops),
                      run.app.checksum,
                      static_cast<unsigned long long>(run.app.errors),
                      h.elapsed_us());
          // Dump here (not from main) so the app.* counters are included.
          h.dump_stats([&](sim::StatRegistry& reg) { run.add_stats(reg); });
          return run.app.errors == 0 ? 0 : 1;
        });
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

}  // namespace

namespace {

/// Translate the --checkpoint-*/--restore spellings into their ckpt.*
/// config keys; returns the restore path ("" = none).
std::string translate_ckpt_args(std::vector<std::string>& args) {
  std::string restore;
  for (auto& a : args) {
    for (const auto& [flag, key] :
         {std::pair<const char*, const char*>{"--checkpoint-at=", "ckpt.at="},
          {"--checkpoint-every=", "ckpt.every="},
          {"--checkpoint-out=", "ckpt.out="}}) {
      if (a.rfind(flag, 0) == 0) {
        a = key + a.substr(std::strlen(flag));
      }
    }
    if (a.rfind("--restore=", 0) == 0) {
      restore = a.substr(std::strlen("--restore="));
      a = "ckpt.restore=1";  // placeholder; stripped from snapshots anyway
    }
  }
  return restore;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: svsim <msg|express|xfer|dma|scoma|numa|reliable|"
                 "app.stencil|app.allreduce|app.kv> [key=value ...]\n"
                 "       svsim --restore=FILE\n");
    return 2;
  }
  std::string workload = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (workload.rfind("--", 0) == 0) {
    args.insert(args.begin(), workload);
    workload.clear();
  }
  const std::string restore_path = translate_ckpt_args(args);

  sim::Config cfg;
  ckpt::Snapshot restored;
  std::string snapshot_mode;  // the snapshot's fastpath= value, if any
  try {
    if (!restore_path.empty()) {
      // The snapshot is the configuration: workload and every key come
      // from its embedded config text, one key=value (or workload=) line
      // each. Anything else on the command line would silently fork the
      // replay from the original run, so extra args are rejected.
      for (const auto& a : args) {
        if (a != "ckpt.restore=1") {
          throw std::runtime_error("--restore takes no other arguments");
        }
      }
      restored = ckpt::Snapshot::load_file(restore_path);
      cfg = sim::Config::from_text(restored.config);
      workload = cfg.get_string("workload");
      snapshot_mode = cfg.get_string(kModeKey);
      if (workload.empty()) {
        throw std::runtime_error("snapshot config names no workload");
      }
    } else {
      if (workload.empty()) {
        throw std::runtime_error("no workload given");
      }
      cfg = sim::Config::from_args(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svsim: %s\n", e.what());
    return 2;
  }
  // Pending bus-bypass completions are keyed differently in each mode, so
  // a snapshot replays only in the mode that captured it. Older snapshots
  // carry no mode line and replay as they always did.
  const std::string mode = sim::fastpath_default() ? "on" : "off";
  if (!snapshot_mode.empty() && snapshot_mode != mode) {
    std::fprintf(stderr,
                 "svsim: snapshot was captured with fastpath=%s but this "
                 "run has fastpath=%s (set SV_NO_FASTPATH to match)\n",
                 snapshot_mode.c_str(), mode.c_str());
    return 2;
  }

  std::unique_ptr<sys::Machine> machine_ptr;
  Workload body;
  DriverOptions opts;
  std::string trace_file;
  std::string trace_stream;
  std::uint64_t trace_buf = 0;
  try {
    // Every key is checked before construction, so the error path builds
    // nothing.
    const sys::Machine::Params params = app::machine_params(cfg);
    body = make_workload(workload, cfg);
    opts = DriverOptions::from_config(cfg);
    trace_file = cfg.get_string("trace", "");
    trace_stream = cfg.get_string("trace_stream", "");
    trace_buf = cfg.get_u64_in("trace_buf", trace::Tracer::kDefaultCapacity,
                               1, std::uint64_t{1} << 24);
    // Every key svsim understands has now been read. A snapshot's keys
    // were all read when it was captured, so only the command line is
    // checked.
    if (const auto unread = cfg.unread_keys();
        restore_path.empty() && !unread.empty()) {
      throw std::runtime_error("unknown key '" + unread.front() + "'");
    }
    machine_ptr = std::make_unique<sys::Machine>(params);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svsim: %s\n", e.what());
    return 2;
  }
  sys::Machine& machine = *machine_ptr;

  if (!trace_file.empty() || !trace_stream.empty()) {
    machine.enable_tracing(trace_buf);
  }
  std::ofstream stream_os;
  std::unique_ptr<trace::ChromeStreamSink> stream_sink;
  if (!trace_stream.empty()) {
    if (machine.tracers().size() != 1) {
      std::fprintf(stderr,
                   "svsim: trace_stream requires a sequential machine "
                   "(threads=0); use trace= for partitioned runs\n");
      return 2;
    }
    stream_os.open(trace_stream);
    if (!stream_os) {
      std::fprintf(stderr, "svsim: cannot open %s\n", trace_stream.c_str());
      return 2;
    }
    stream_sink = std::make_unique<trace::ChromeStreamSink>(stream_os);
    machine.tracer()->set_sink(stream_sink.get());
  }

  Harness harness(machine, cfg, opts);
  harness.set_workload(workload);
  if (!restore_path.empty()) {
    harness.set_restore(&restored);
  }
  // A replay re-captures exactly the snapshot's config text, so it keeps
  // the snapshot's mode line, or its lack of one.
  if (restore_path.empty() || !snapshot_mode.empty()) {
    harness.set_mode_line(std::string(kModeKey) + "=" + mode + "\n");
  }
  const int rc = body(harness);

  if (stream_sink) {
    stream_sink->finish(machine.now());
    machine.tracer()->set_sink(nullptr);
    if (!stream_os) {
      std::fprintf(stderr, "svsim: write failed for %s\n",
                   trace_stream.c_str());
      return 1;
    }
    std::printf("trace: %llu events streamed (%llu flows evicted) -> %s\n",
                static_cast<unsigned long long>(stream_sink->events_written()),
                static_cast<unsigned long long>(stream_sink->flows_evicted()),
                trace_stream.c_str());
  }
  if (!trace_file.empty()) {
    // Merge the per-domain tracers into one canonical timeline — for a
    // sequential machine that is a single-tracer merge, so the file is the
    // same either way.
    const auto tracers = machine.tracers();
    std::size_t events = 0;
    std::uint64_t dropped = 0;
    for (const auto* tr : tracers) {
      events += tr->size();
      dropped += tr->dropped();
    }
    try {
      trace::write_chrome_trace_file(
          tracers, trace_file, trace::ChromeWriteOptions{machine.now()});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "svsim: %s\n", e.what());
      return 1;
    }
    std::printf("trace: %zu events (%llu dropped) -> %s\n", events,
                static_cast<unsigned long long>(dropped),
                trace_file.c_str());
  }

  harness.dump_stats();
  return rc;
}
