#include "report.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace svbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s", "lower"},
      {"setup_s", "s", "lower"},
      {"ops_per_s", "1/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"failed_frac", "frac", "lower"},
        {"sys.construct_s", "s", "lower"},
        {"sys.stats_s", "s", "lower"},
        {"sim.run_s", "s", "lower"},
        {"sim.events", "count", "lower"},
        {"sim.events_per_op", "count", "lower"},
        {"sim.ns_per_event", "ns", "lower"},
        {"sim.bypass_frac", "frac", "higher"},
        {"cpu.aP_busy_us", "us", "lower"},
        {"cpu.aP_occupancy_max", "frac", "lower"},
        {"cpu.sP_occupancy_mean", "frac", "lower"},
        {"mem.bus_transactions", "count", "lower"},
        {"mem.bus_tx_per_op", "count", "lower"},
        {"mem.bus_retry_frac", "frac", "lower"},
        {"mem.bus_data_occupancy_mean", "frac", "lower"},
        {"mem.cache_hit_frac", "frac", "higher"},
        {"mem.cache_writebacks", "count", "lower"},
        {"mem.snoop_invalidates", "count", "lower"},
        {"niu.msgs_launched", "count", "lower"},
        {"niu.msgs_received", "count", "lower"},
        {"niu.rx_miss_frac", "frac", "lower"},
        {"niu.rx_dropped", "count", "lower"},
        {"niu.block_ops", "count", "lower"},
        {"niu.ibus_occupancy_mean", "frac", "lower"},
        {"niu.pointer_updates", "count", "lower"},
        {"niu.scoma_checks", "count", "lower"},
        {"niu.scoma_retries", "count", "lower"},
        {"fw.sP_busy_us", "us", "lower"},
        {"fw.miss_serviced", "count", "lower"},
        {"fw.scoma_grants", "count", "lower"},
        {"fw.scoma_recalls", "count", "lower"},
        {"fw.scoma_invalidations", "count", "lower"},
        {"fw.numa_remote_ops", "count", "lower"},
        {"net.packets_injected", "count", "lower"},
        {"net.packets_delivered", "count", "lower"},
        {"net.packets_dropped", "count", "lower"},
        {"net.mean_transit_us", "us", "lower"},
        {"net.audit_clean", "bool", "higher"},
        {"msg.send_sim_us_p50", "us", "lower"},
        {"msg.send_sim_us_p99", "us", "lower"},
        {"msg.retransmits", "count", "lower"},
        {"msg.retransmit_frac", "frac", "lower"},
        {"msg.corrupt_rejected", "count", "lower"},
        {"shm.load_sim_us_p50", "us", "lower"},
        {"shm.load_sim_us_p99", "us", "lower"},
        {"shm.store_sim_us_p50", "us", "lower"},
        {"shm.store_sim_us_p99", "us", "lower"},
    };
    for (int a = 1; a <= 5; ++a) {
      d.push_back({"xfer.a" + std::to_string(a) + ".mbps", "MB/s", "higher"});
    }
    for (int a = 1; a <= 5; ++a) {
      d.push_back(
          {"xfer.a" + std::to_string(a) + ".notify_us", "us", "lower"});
    }
    for (MetricDef m : std::vector<MetricDef>{
             {"app.launch_s", "s", "lower"},
             {"app.msgs_sent", "count", "lower"},
             {"app.frames_sent", "count", "lower"},
             {"app.frames_per_msg", "count", "lower"},
             {"trace.overhead_frac", "frac", "lower"},
             {"trace.events", "count", "lower"},
             {"trace.dropped", "count", "lower"},
             {"trace.write_s", "s", "lower"},
         }) {
      d.push_back(m);
    }
    for (const char* c : {"bus", "cpu", "niu", "fw", "link", "router"}) {
      d.push_back({std::string("trace.busy_frac.") + c, "frac", "lower"});
    }
    d.push_back({"trace.flow_lat_p50_us", "us", "lower"});
    d.push_back({"trace.flow_lat_p99_us", "us", "lower"});
    for (const char* c : {"bus", "niu", "link", "router"}) {
      d.push_back({std::string("trace.flow_share.") + c, "frac", "lower"});
    }
    d.push_back({"ckpt.capture_s", "s", "lower"});
    d.push_back({"ckpt.bytes", "bytes", "lower"});
    return d;
  }();
  return defs;
}

namespace {

/// Work of the reduced instance the traced run uses: small enough that its
/// whole timeline fits the trace ring and trace::TraceAnalysis parses it
/// in about a second.
std::uint64_t reduced_work(const std::string& workload) {
  if (workload == "kv-msg") {
    return 6;
  }
  if (workload == "fig4-sweep") {
    return 64;
  }
  if (workload == "scoma-mix") {
    return 60;
  }
  return 4;  // ring-256
}

constexpr std::size_t kTraceCapacity = std::size_t{1} << 22;

double max_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Peak RSS of one full iteration, run in a forked child. A fresh process
/// is the only place where one iteration's peak RSS cannot be raised or
/// masked by earlier work. The child reports through a pipe and exits.
double peak_rss_in_child(const std::string& workload,
                         const IterationOptions& opt) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    bool ok = false;
    try {
      SpanRecorder spans("child");
      (void)run_iteration(workload, opt, spans);
      const double mb = max_rss_mb();
      ok = write(fds[1], &mb, sizeof mb) == sizeof mb;
    } catch (...) {
    }
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double mb = 0;
  const bool ok = read(fds[0], &mb, sizeof mb) == sizeof mb;
  close(fds[0]);
  int status = 0;
  const bool reaped = waitpid(pid, &status, 0) == pid;
  if (!ok || !reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a forked measurement child failed");
  }
  return mb;
}

}  // namespace

RunData measure(const MeasureOptions& m, SpanRecorder& spans) {
  using Clock = std::chrono::steady_clock;
  RunData d;
  d.workload = m.workload;
  d.seed = m.seed;
  d.traced_mode = m.traced;

  IterationOptions opt;
  opt.seed = iteration_seed(m.seed, 0);
  opt.work = m.work;
  // Peak RSS depends on the input (on ring-256, on the drop pattern by up
  // to about 20 %): the median over three inputs, each in a fresh child.
  std::vector<double> rss;
  for (std::uint64_t k = 0; k < 3; ++k) {
    IterationOptions probe = opt;
    probe.seed = iteration_seed(m.seed, k);
    rss.push_back(peak_rss_in_child(m.workload, probe));
  }
  d.peak_rss_mb = summarize(rss).median;

  const auto t0 = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const double run_budget = m.seconds * (m.traced ? 0.5 : 1.0);
  while (d.iterations.size() < 3 || elapsed() < run_budget) {
    IterationOptions it = opt;
    it.seed = iteration_seed(m.seed, d.iterations.size());
    d.iterations.push_back(run_iteration(m.workload, it, spans));
    if (d.iterations.back().outcome.failed != 0) {
      break;  // a failing run may be spinning to its deadline
    }
  }
  d.rerun = run_iteration(m.workload, opt, spans);
  d.process_rss_mb = max_rss_mb();
  if (!m.traced) {
    return d;
  }

  IterationOptions cap = opt;
  cap.capture = true;
  d.captured = run_iteration(m.workload, cap, spans);

  IterationOptions reduced = opt;
  reduced.work =
      m.reduced_work != 0 ? m.reduced_work : reduced_work(m.workload);
  while (d.reduced.size() < 3 || elapsed() < m.seconds * 0.75) {
    d.reduced.push_back(run_iteration(m.workload, reduced, spans));
  }
  reduced.trace_capacity = kTraceCapacity;
  reduced.trace_path = m.trace_path;
  d.traced = run_iteration(m.workload, reduced, spans);
  return d;
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) {
    return s;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1 - p / 100) >= 10) {
      std::vector<double> copy = v;
      s.high_p = p;
      s.high_value = percentile(copy, p);
      break;
    }
  }
  return s;
}

namespace {

std::vector<double> each(const std::vector<IterationResult>& it,
                         double (*get)(const IterationResult&)) {
  std::vector<double> v;
  for (const auto& r : it) {
    v.push_back(get(r));
  }
  return v;
}

double median_of(const std::vector<IterationResult>& it,
                 double (*get)(const IterationResult&)) {
  return summarize(each(it, get)).median;
}

double wall_s(const IterationResult& r) { return r.wall_s; }
double setup_s(const IterationResult& r) { return r.setup_s; }
double run_s(const IterationResult& r) { return r.run_s; }

/// Verified ops per host second of the run phase.
double ops_per_s(const IterationResult& r) {
  return static_cast<double>(r.outcome.attempted - r.outcome.failed) /
         r.run_s;
}

// End-to-end timings report the slower tail of a run's iterations (the
// 90th percentile of times, the 10th of throughputs). On a shared host,
// stretches of seconds to minutes run everything up to 2x slower than the
// rest. How much of a run they cover varies from run to run and moves a
// mean or a median with it; nearly every run sees some, so its slowest
// tenth measures that slow state itself. Over 39 ten-seed sets this
// statistic spread least (README.md).
constexpr double kTimeQuantile = 90;

/// The end-to-end values of a run; setup_s is the median of its
/// iterations' set-up times.
std::map<std::string, double> end_to_end_values(const RunData& d) {
  auto wall = each(d.iterations, wall_s);
  auto ops = each(d.iterations, ops_per_s);
  return {
      {"wall_s", percentile(wall, kTimeQuantile)},
      {"setup_s", median_of(d.iterations, setup_s)},
      {"ops_per_s", percentile(ops, 100 - kTimeQuantile)},
      {"peak_rss_mb", d.peak_rss_mb},
  };
}

}  // namespace

Verdict evaluate(const RunData& d) {
  Verdict v;
  // Every oracle-checked iteration counts, so the trace.* and ckpt.*
  // figures of a traced run come from verified runs too.
  std::vector<const IterationResult*> checked;
  for (const auto& r : d.iterations) {
    checked.push_back(&r);
  }
  for (const auto& r : d.reduced) {
    checked.push_back(&r);
  }
  for (const auto* r : {&d.captured, &d.traced}) {
    if (r->has_value()) {
      checked.push_back(&r->value());
    }
  }
  for (const IterationResult* r : checked) {
    v.attempted += r->outcome.attempted;
    v.failed += r->outcome.failed;
    for (const auto& p : r->outcome.problems) {
      if (v.problems.size() < 8) {
        v.problems.push_back(p);
      }
    }
  }
  // Simulated behaviour must repeat exactly for one input.
  v.deterministic = d.rerun.has_value() && !d.iterations.empty() &&
                    d.rerun->stats_crc == d.iterations.front().stats_crc &&
                    d.rerun->layers == d.iterations.front().layers;
  if (!v.deterministic) {
    v.problems.push_back(
        "nondeterminism: a re-run of the first iteration's input gave "
        "different simulated stats");
  }
  v.correct = !d.iterations.empty() && v.failed == 0 && v.deterministic;
  const IterationResult* first =
      d.iterations.empty() ? nullptr : &d.iterations.front();

  if (!d.traced_mode) {
    const auto values = end_to_end_values(d);
    for (const auto& m : end_to_end_metrics()) {
      v.metrics.emplace_back(m, values.at(m.name));
    }
    return v;
  }

  LayerValues L = first != nullptr ? first->layers : LayerValues{};
  L["failed_frac"] = v.attempted > 0 ? static_cast<double>(v.failed) /
                                           static_cast<double>(v.attempted)
                                     : 1.0;
  L["sys.construct_s"] = median_of(
      d.iterations, [](const IterationResult& r) { return r.construct_s; });
  L["sys.stats_s"] = median_of(
      d.iterations, [](const IterationResult& r) { return r.stats_s; });
  L["sim.run_s"] = median_of(d.iterations, run_s);
  L["sim.ns_per_event"] =
      median_of(d.iterations, [](const IterationResult& r) {
        return r.run_s * 1e9 / static_cast<double>(r.events_executed);
      });
  if (first != nullptr && first->launch_s) {
    L["app.launch_s"] = median_of(
        d.iterations, [](const IterationResult& r) { return *r.launch_s; });
  }
  if (d.captured) {
    L["ckpt.capture_s"] = d.captured->capture_s;
    L["ckpt.bytes"] = d.captured->layers.at("ckpt.bytes");
  }
  if (d.traced) {
    for (const auto& [name, value] : d.traced->layers) {
      if (name.rfind("trace.", 0) == 0) {
        L[name] = value;
      }
    }
    L["trace.write_s"] = d.traced->trace_write_s;
    L["trace.overhead_frac"] =
        d.traced->run_s / median_of(d.reduced, run_s);
    if (d.traced->layers.at("trace.dropped").value_or(0) != 0) {
      v.problems.push_back(
          "trace: the ring overwrote events; trace.* values are partial");
    }
  }
  for (const auto& m : per_layer_metrics()) {
    const auto it = L.find(m.name);
    v.metrics.emplace_back(m, it != L.end() ? it->second : std::nullopt);
  }
  return v;
}

void print_report(const RunData& d, const Verdict& v, std::ostream& os) {
  char line[256];
  std::snprintf(line, sizeof line,
                "svbench %s seed=%llu: %zu iterations, %llu/%llu ops "
                "failed, %s\n",
                d.workload.c_str(), static_cast<unsigned long long>(d.seed),
                d.iterations.size(),
                static_cast<unsigned long long>(v.failed),
                static_cast<unsigned long long>(v.attempted),
                v.correct ? "outputs verified" : "OUTPUT CHECK FAILED");
  os << line;
  if (!d.iterations.empty()) {
    std::snprintf(line, sizeof line,
                  "stats digest (crc32 of collect_stats JSON, first "
                  "iteration): %08x, %s\n",
                  d.iterations.front().stats_crc,
                  v.deterministic ? "reproduced by a re-run"
                                  : "NOT reproduced by a re-run");
    os << line;
  }
  for (const auto& p : v.problems) {
    os << "  problem: " << p << "\n";
  }

  // End-to-end sample distributions, always shown.
  const auto values = end_to_end_values(d);
  const auto show = [&](const char* name, const char* unit, const char* how,
                        const std::vector<double>& samples) {
    const Summary s = summarize(samples);
    std::snprintf(line, sizeof line,
                  "  %-12s %14.6g %-4s %s of %zu iterations (median %.6g",
                  name, values.at(name), unit, how, s.n, s.median);
    os << line;
    if (s.high_p) {
      std::snprintf(line, sizeof line, ", p%g %.6g", *s.high_p,
                    *s.high_value);
      os << line;
    }
    os << ")\n";
  };
  os << "end to end (tracing off):\n";
  show("wall_s", "s", "p90", each(d.iterations, wall_s));
  show("setup_s", "s", "median", each(d.iterations, setup_s));
  show("ops_per_s", "1/s", "p10", each(d.iterations, ops_per_s));
  std::snprintf(line, sizeof line,
                "  %-12s %14.6g %-4s median of 3 inputs, each one "
                "iteration in a fresh process (this process after %zu "
                "iterations: %.6g MB)\n",
                "peak_rss_mb", d.peak_rss_mb, "MB", d.iterations.size(),
                d.process_rss_mb);
  os << line;

  if (d.traced_mode) {
    os << "per layer:\n";
    for (const auto& [m, value] : v.metrics) {
      if (value) {
        std::snprintf(line, sizeof line, "  %-30s %14.6g %s\n",
                      m.name.c_str(), *value, m.unit.c_str());
      } else {
        std::snprintf(line, sizeof line, "  %-30s %14s\n", m.name.c_str(),
                      "n/a");
      }
      os << line;
    }
  }
}

void print_result_line(const Verdict& v, std::ostream& os) {
  char buf[64];
  os << "{\"correct\": " << (v.correct ? "true" : "false")
     << ", \"attempted\": " << v.attempted << ", \"failed\": " << v.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [m, value] : v.metrics) {
    double x = value.value_or(0.0);
    if (!std::isfinite(x)) {
      x = 0.0;
    }
    std::snprintf(buf, sizeof buf, "%.17g", x);
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}\n";
}

}  // namespace svbench
