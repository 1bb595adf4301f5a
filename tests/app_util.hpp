// Shared helpers for the app-runtime tests: build a machine, run one of
// the shipped applications over a chosen transport, and dump a combined
// machine+app stats JSON — the app-level analogue of
// run_machine_and_dump_stats (test_util.hpp), with the same determinism
// contract: one AppRunSpec produces a byte-identical AppRunResult at
// every threads= value.
#pragma once

#include "app/apps.hpp"
#include "test_util.hpp"

namespace sv::test {

enum class AppKind { kStencil, kAllreduce, kKv };

inline const char* app_name(AppKind k) {
  switch (k) {
    case AppKind::kStencil:
      return "stencil";
    case AppKind::kAllreduce:
      return "allreduce";
    case AppKind::kKv:
      return "kv";
  }
  return "?";
}

struct AppRunSpec {
  AppKind app = AppKind::kStencil;
  app::TransportKind transport = app::TransportKind::kMsg;
  std::size_t nodes = 4;
  std::size_t nranks = 0;  ///< 0 = one per node
  unsigned threads = 0;
  fault::Plan fault;
  bool fastpath = sim::fastpath_default();
  app::ShmTransport::Region shm_region = app::ShmTransport::Region::kNuma;
  msg::ReliableChannel::Params reliable;

  app::StencilParams stencil;
  app::AllreduceParams allreduce;
  app::KvParams kv;

  std::size_t trace_capacity = 0;
  sim::Tick deadline = 2000 * sim::kMillisecond;
  bool check_conservation = true;
};

struct AppRunResult {
  bool completed = false;
  sim::Tick end_time = 0;
  std::string stats_json;  ///< machine stats + app.* counters, one object
  std::string span_dump;
  std::uint64_t trace_dropped = 0;
  app::AppResult app;
  std::uint64_t fast_hits = 0;  ///< see RunResult
  std::uint64_t executed = 0;
};

inline app::World::Program make_app_program(const AppRunSpec& spec,
                                            app::AppResult* out) {
  switch (spec.app) {
    case AppKind::kStencil:
      return app::make_stencil(spec.stencil, out);
    case AppKind::kAllreduce:
      return app::make_allreduce_sweep(spec.allreduce, out);
    case AppKind::kKv:
      return app::make_kv(spec.kv, out);
  }
  return {};
}

inline AppRunResult run_app_and_dump_stats(const AppRunSpec& spec) {
  auto mp = small_machine_params(spec.nodes, sys::Machine::NetKind::kIdeal);
  mp.threads = spec.threads;
  mp.fault = spec.fault;
  mp.node.bus.fastpath = spec.fastpath;
  sys::Machine machine(mp);
  if (spec.trace_capacity > 0) {
    machine.enable_tracing(spec.trace_capacity);
  }

  app::World::Params wp;
  wp.nranks = spec.nranks;
  wp.transport = spec.transport;
  wp.shm_region = spec.shm_region;
  wp.reliable = spec.reliable;
  app::World world(machine, wp);

  AppRunResult res;
  world.launch(make_app_program(spec, &res.app));

  res.completed = sys::run_until(machine, [&] { return world.done(); },
                                 machine.now() + spec.deadline);
  EXPECT_TRUE(res.completed)
      << app_name(spec.app) << " timed out at " << machine.now() << " ps";
  if (spec.check_conservation && res.completed) {
    expect_network_conserves(machine);
  }

  res.end_time = machine.now();
  res.fast_hits = fast_path_hits(machine);
  res.executed = machine.events_executed();
  auto reg = sys::collect_stats(machine);
  world.add_stats(reg);
  std::ostringstream os;
  reg.dump_json(os);
  res.stats_json = os.str();
  if (spec.trace_capacity > 0) {
    const auto trs = machine.tracers();
    for (const auto* t : trs) {
      res.trace_dropped += t->dropped();
    }
    res.span_dump = trace::canonical_span_dump(trs);
  }
  return res;
}

}  // namespace sv::test
