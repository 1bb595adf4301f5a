// Steppable workload runs for the checkpoint tests: the same drivers as
// run_machine_and_dump_stats / run_app_and_dump_stats (test_util.hpp,
// app_util.hpp), but the caller drives time — so a run can be captured
// mid-flight, a second identical run replayed to the same boundary, and
// the two snapshots byte-compared (Snapshot::verify). That replay
// equivalence is the restore contract DESIGN.md §14 states.
#pragma once

#include "ckpt/capture.hpp"
#include "tests/app_util.hpp"
#include "tests/test_util.hpp"

namespace sv::test {

/// A RunSpec workload materialized as a machine the caller steps.
struct SteppableRun {
  sys::Machine machine;
  std::vector<std::unique_ptr<msg::Endpoint>> eps;
  std::vector<std::unique_ptr<msg::ReliableChannel>> chans;
  std::vector<std::uint8_t> done;

  explicit SteppableRun(const RunSpec& spec)
      : machine(make_params(spec)), done(spec.nodes, 0) {
    if (spec.trace_capacity > 0) {
      machine.enable_tracing(spec.trace_capacity);
    }
    switch (spec.workload) {
      case Workload::kMsg:
        detail::start_msg_drivers(machine, spec, eps, done);
        break;
      case Workload::kShm:
        detail::start_shm_drivers(machine, spec, done);
        break;
      case Workload::kReliable:
        detail::start_reliable_drivers(machine, spec, eps, chans, done);
        break;
    }
  }

  [[nodiscard]] bool finished() const {
    for (const auto f : done) {
      if (f == 0) {
        return false;
      }
    }
    for (const auto& ch : chans) {
      if (ch->unacked() != 0) {
        return false;
      }
    }
    return true;
  }

  /// Drive to the first epoch boundary at/after `target` and capture.
  [[nodiscard]] ckpt::Snapshot capture_at(
      sim::Tick target, sim::Tick deadline = 2000 * sim::kMillisecond) {
    ckpt::run_to_tick(machine, target, machine.now() + deadline);
    return ckpt::capture(machine, "run");
  }

  void finish(sim::Tick deadline = 2000 * sim::kMillisecond) {
    ASSERT_TRUE(sys::run_until(machine, [&] { return finished(); },
                               machine.now() + deadline))
        << "workload timed out at " << machine.now() << " ps";
  }

  [[nodiscard]] std::string stats_json() {
    std::ostringstream os;
    sys::dump_stats_json(machine, os);
    return os.str();
  }

  /// Canonical trace-span dump (tracing-enabled specs only).
  [[nodiscard]] std::string span_dump() const {
    return trace::canonical_span_dump(machine.tracers());
  }

 private:
  static sys::Machine::Params make_params(const RunSpec& spec) {
    auto mp = small_machine_params(spec.nodes, spec.net);
    mp.threads = spec.threads;
    mp.fault = spec.fault;
    mp.node.bus.fastpath = spec.fastpath;
    return mp;
  }
};

/// An AppRunSpec workload (app runtime over a chosen transport),
/// steppable the same way; captures include the "app" chunk.
struct SteppableAppRun {
  sys::Machine machine;
  app::World world;
  app::AppResult app;

  explicit SteppableAppRun(const AppRunSpec& spec)
      : machine(make_params(spec)), world(machine, world_params(spec)) {
    world.launch(make_app_program(spec, &app));
  }

  [[nodiscard]] ckpt::Snapshot capture_at(
      sim::Tick target, sim::Tick deadline = 2000 * sim::kMillisecond) {
    ckpt::run_to_tick(machine, target, machine.now() + deadline);
    return ckpt::capture(machine, "app-run", &world);
  }

  void finish(sim::Tick deadline = 2000 * sim::kMillisecond) {
    ASSERT_TRUE(sys::run_until(machine, [&] { return world.done(); },
                               machine.now() + deadline))
        << "app timed out at " << machine.now() << " ps";
  }

  [[nodiscard]] std::string stats_json() {
    auto reg = sys::collect_stats(machine);
    world.add_stats(reg);
    std::ostringstream os;
    reg.dump_json(os);
    return os.str();
  }

 private:
  static sys::Machine::Params make_params(const AppRunSpec& spec) {
    auto mp = small_machine_params(spec.nodes, sys::Machine::NetKind::kIdeal);
    mp.threads = spec.threads;
    mp.fault = spec.fault;
    mp.node.bus.fastpath = spec.fastpath;
    return mp;
  }

  static app::World::Params world_params(const AppRunSpec& spec) {
    app::World::Params wp;
    wp.nranks = spec.nranks;
    wp.transport = spec.transport;
    wp.shm_region = spec.shm_region;
    wp.reliable = spec.reliable;
    return wp;
  }
};

}  // namespace sv::test
