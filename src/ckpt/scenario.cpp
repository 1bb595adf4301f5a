#include "ckpt/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "app/workloads.hpp"
#include "ckpt/capture.hpp"
#include "sim/config.hpp"
#include "sys/experiment.hpp"
#include "sys/machine.hpp"

namespace sv::ckpt {

namespace {

constexpr char kScenarioTag[] = "reliable_ring";

sim::Config parse_config(const std::string& text) {
  try {
    return sim::Config::from_text(text);
  } catch (const std::exception& e) {
    throw Error(std::string("bad scenario config: ") + e.what());
  }
}

/// One ring machine: the shared reliable ring (app/workloads.hpp) on a
/// scripted-fault machine, plus which nodes' channels gave up.
struct RingRun {
  sys::Machine machine;
  std::vector<std::uint8_t> gave_up;
  std::unique_ptr<app::WorkloadRun> run;

  RingRun(const RingSpec& spec, std::vector<std::uint64_t> script)
      : machine(machine_params(spec, std::move(script))),
        gave_up(spec.nodes, 0) {
    app::RingWorkload w;
    w.count = spec.count;
    w.bytes = spec.bytes;
    w.channel.window = spec.window;
    w.channel.retransmit.base_timeout = spec.timeout_us * sim::kMicrosecond;
    w.channel.retransmit.give_up_after = static_cast<unsigned>(spec.give_up);
    run = w.start(machine,
                  [this](sim::NodeId self, sim::NodeId) { gave_up[self] = 1; });
  }

  [[nodiscard]] bool any_gave_up() const {
    return std::any_of(gave_up.begin(), gave_up.end(),
                       [](std::uint8_t f) { return f != 0; });
  }

 private:
  static sys::Machine::Params machine_params(
      const RingSpec& spec, std::vector<std::uint64_t> script) {
    sys::Machine::Params mp;
    mp.nodes = spec.nodes;
    mp.net = sys::Machine::NetKind::kIdeal;
    mp.fault.seed = spec.fault_seed;
    // Scripted mode (single event domain): even an empty script keeps the
    // injector alive so drop opportunities are counted.
    mp.fault.scripted = true;
    std::sort(script.begin(), script.end());
    mp.fault.drop_script = std::move(script);
    return mp;
  }
};

}  // namespace

std::string RingSpec::to_config() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "scenario=%s\nnodes=%llu\ncount=%llu\nbytes=%llu\n"
                "window=%llu\ntimeout_us=%llu\ngive_up=%llu\n"
                "deadline_ms=%llu\nfault_seed=%llu\n",
                kScenarioTag, static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(window),
                static_cast<unsigned long long>(timeout_us),
                static_cast<unsigned long long>(give_up),
                static_cast<unsigned long long>(deadline_ms),
                static_cast<unsigned long long>(fault_seed));
  return buf;
}

RingSpec RingSpec::from_config(const std::string& text) {
  const sim::Config cfg = parse_config(text);
  if (cfg.get_string("scenario") != kScenarioTag) {
    throw Error("snapshot is not a reliable_ring scenario (scenario=" +
                cfg.get_string("scenario", "<missing>") + ")");
  }
  return from_keys(cfg);
}

RingSpec RingSpec::from_keys(const sim::Config& cfg) {
  RingSpec spec;
  spec.nodes = cfg.get_u64_in("nodes", spec.nodes, 2, 1024);
  spec.count = cfg.get_u64_in("count", spec.count, 1, 1'000'000);
  spec.bytes = cfg.get_u64_in("bytes", spec.bytes, 0,
                              msg::ReliableChannel::kMaxPayload);
  spec.window = cfg.get_u64_in("window", spec.window, 1, 1024);
  spec.timeout_us = cfg.get_u64_in("timeout_us", spec.timeout_us, 1,
                                   1'000'000);
  spec.give_up = cfg.get_u64_in("give_up", spec.give_up, 0, 1000);
  spec.deadline_ms = cfg.get_u64_in("deadline_ms", spec.deadline_ms, 1,
                                    3'600'000);
  spec.fault_seed = cfg.get_u64("fault_seed", spec.fault_seed);
  return spec;
}

ScenarioResult run_reliable_ring(const RingSpec& spec,
                                 const std::vector<std::uint64_t>& drops,
                                 const Snapshot* resume) {
  RingSpec eff = spec;
  std::uint64_t base = 0;
  if (resume != nullptr) {
    eff = RingSpec::from_config(resume->config);
    base = parse_config(resume->config).get_u64("base_opp", 0);
  }
  std::vector<std::uint64_t> script;
  script.reserve(drops.size());
  for (const std::uint64_t d : drops) {
    script.push_back(base + d);
  }
  RingRun run(eff, std::move(script));
  const sim::Tick deadline = eff.deadline_ms * sim::kMillisecond;

  if (resume != nullptr) {
    // Every scripted drop lands at/after the checkpoint's opportunity
    // base, so the replay prefix must reproduce the fault-free capture
    // bit-for-bit; verify() throws otherwise.
    run_to_tick(run.machine, resume->tick, deadline);
    Snapshot::verify(*resume, capture(run.machine, resume->config));
  }

  const bool completed = sys::run_until(
      run.machine, [&] { return run.run->finished(); }, deadline);

  ScenarioResult r;
  r.opportunities =
      run.machine.fault_injector()->drop_opportunities() - base;
  r.state_hash = capture(run.machine, "").state_hash();
  if (std::string bad = run.run->violation(); !bad.empty()) {
    r.violation = true;
    r.detail = std::move(bad);
  } else if (!completed && !run.any_gave_up()) {
    r.violation = true;
    r.detail = "stuck: ring never completed and no channel gave up";
  }
  return r;
}

Snapshot checkpoint_reliable_ring(const RingSpec& spec, sim::Tick at) {
  RingRun run(spec, {});
  const sim::Tick deadline = spec.deadline_ms * sim::kMillisecond;
  run_to_tick(run.machine, at, deadline);
  std::string config = spec.to_config();
  config += "base_opp=" +
            std::to_string(
                run.machine.fault_injector()->drop_opportunities()) +
            "\n";
  return capture(run.machine, std::move(config));
}

ScenarioFn reliable_ring_scenario(RingSpec spec, const Snapshot* resume) {
  return [spec, resume](const std::vector<std::uint64_t>& drops) {
    return run_reliable_ring(spec, drops, resume);
  };
}

}  // namespace sv::ckpt
