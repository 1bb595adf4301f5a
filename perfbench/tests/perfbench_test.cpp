// The benchmark's own tests: metric coverage and naming, deadline
// accounting, oracles against planted faults, and determinism.
//
//   cmake --build <build> --target perfbench_test && <build>/perfbench_test
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "report.hpp"

namespace svbench {
namespace {

/// Smallest instance of each workload that still exercises its layers.
std::uint64_t tiny_work(const std::string& w) {
  if (w == "kv-msg") {
    return 4;
  }
  if (w == "fig4-sweep") {
    return 16;
  }
  if (w == "scoma-mix") {
    return 40;
  }
  return 3;
}

/// A whole traced-mode measurement of a tiny instance, shared by tests.
const RunData& traced_run(const std::string& w) {
  static std::map<std::string, RunData> cache;
  auto it = cache.find(w);
  if (it == cache.end()) {
    SpanRecorder spans("test");
    MeasureOptions m;
    m.workload = w;
    m.seconds = 0.01;
    m.traced = true;
    m.work = tiny_work(w);
    m.reduced_work = tiny_work(w);
    m.trace_path = ::testing::TempDir() + "perfbench_test.trace.json";
    it = cache.emplace(w, measure(m, spans)).first;
  }
  return it->second;
}

std::set<std::string> names(const std::vector<MetricDef>& defs) {
  std::set<std::string> out;
  for (const auto& d : defs) {
    out.insert(d.name);
  }
  return out;
}

// Every per-layer metric the benchmark promises, by layer.
const std::vector<std::string> kLayerMetrics = {
    "sys.construct_s", "sys.stats_s", "sim.run_s", "sim.events",
    "sim.events_per_op", "sim.ns_per_event", "sim.bypass_frac",
    "cpu.aP_busy_us", "cpu.aP_occupancy_max", "cpu.sP_occupancy_mean",
    "mem.bus_transactions", "mem.bus_tx_per_op", "mem.bus_retry_frac",
    "mem.bus_data_occupancy_mean", "mem.cache_hit_frac",
    "mem.cache_writebacks", "mem.snoop_invalidates", "niu.msgs_launched",
    "niu.msgs_received", "niu.rx_miss_frac", "niu.rx_dropped",
    "niu.block_ops", "niu.ibus_occupancy_mean", "niu.pointer_updates",
    "niu.scoma_checks", "niu.scoma_retries", "fw.sP_busy_us",
    "fw.miss_serviced", "fw.scoma_grants", "fw.scoma_recalls",
    "fw.scoma_invalidations", "fw.numa_remote_ops", "net.packets_injected",
    "net.packets_delivered", "net.packets_dropped", "net.mean_transit_us",
    "net.audit_clean", "msg.send_sim_us_p50", "msg.send_sim_us_p99",
    "msg.retransmits", "msg.retransmit_frac", "msg.corrupt_rejected",
    "shm.load_sim_us_p50", "shm.load_sim_us_p99", "shm.store_sim_us_p50",
    "shm.store_sim_us_p99", "xfer.a1.mbps", "xfer.a2.mbps", "xfer.a3.mbps",
    "xfer.a4.mbps", "xfer.a5.mbps", "xfer.a1.notify_us",
    "xfer.a2.notify_us", "xfer.a3.notify_us", "xfer.a4.notify_us",
    "xfer.a5.notify_us", "app.launch_s", "app.msgs_sent", "app.frames_sent",
    "app.frames_per_msg", "trace.overhead_frac", "trace.events",
    "trace.dropped", "trace.write_s", "trace.busy_frac.bus",
    "trace.busy_frac.cpu", "trace.busy_frac.niu", "trace.busy_frac.fw",
    "trace.busy_frac.link", "trace.busy_frac.router",
    "trace.flow_lat_p50_us", "trace.flow_lat_p99_us",
    "trace.flow_share.bus", "trace.flow_share.niu",
    "trace.flow_share.link", "trace.flow_share.router", "ckpt.capture_s",
    "ckpt.bytes", "failed_frac"};

// Metrics of layers a workload leaves idle, which may read n/a there.
bool may_be_na(const std::string& workload, const std::string& metric) {
  const auto starts = [&](const char* p) { return metric.rfind(p, 0) == 0; };
  if (starts("xfer.")) {
    return workload != "fig4-sweep";
  }
  if (starts("app.")) {
    return workload != "kv-msg";
  }
  if (starts("msg.")) {
    return workload != "ring-256";
  }
  if (starts("shm.")) {
    return workload != "scoma-mix";
  }
  // S-COMA firmware is off in the Figure-4 machine (approaches 4/5 manage
  // clsSRAM themselves); a layer may also have no ratio denominator.
  return metric == "fw.scoma_grants" || metric == "fw.scoma_recalls" ||
         metric == "fw.scoma_invalidations" || metric == "fw.miss_serviced" ||
         metric == "fw.numa_remote_ops" || metric == "trace.busy_frac.fw" ||
         metric == "niu.rx_miss_frac" || metric == "mem.bus_retry_frac" ||
         metric == "mem.cache_hit_frac";
}

TEST(PerfbenchMetrics, LayerMetricsAreDefinedAndWellNamed) {
  const auto layer = names(per_layer_metrics());
  for (const auto& m : kLayerMetrics) {
    EXPECT_TRUE(layer.count(m)) << m;
  }
  EXPECT_EQ(layer.size(), kLayerMetrics.size());
  EXPECT_EQ(layer.size(), per_layer_metrics().size()) << "duplicate names";
  EXPECT_EQ(names(end_to_end_metrics()),
            (std::set<std::string>{"wall_s", "setup_s", "ops_per_s",
                                   "peak_rss_mb"}));
  const std::regex ok("[A-Za-z0-9_.-]+");
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& d : *defs) {
      EXPECT_TRUE(std::regex_match(d.name, ok)) << d.name;
      EXPECT_TRUE(d.better == "higher" || d.better == "lower") << d.name;
    }
  }
}

TEST(PerfbenchMetrics, BenchmarkJsonNamesEveryMetricAndWorkload) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::set<std::string> listed;
  std::size_t entries = 0;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (std::sregex_iterator it(text.begin(), text.end(), name_re), end;
       it != end; ++it) {
    listed.insert((*it)[1]);
    ++entries;
  }
  EXPECT_EQ(entries, listed.size()) << "a name is listed twice";
  std::set<std::string> want = names(end_to_end_metrics());
  for (const auto& n : names(per_layer_metrics())) {
    want.insert(n);
  }
  for (const auto& w : workload_names()) {
    want.insert(w);
  }
  EXPECT_EQ(listed, want);
}

class PerWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(PerWorkload, TracedRunEmitsEveryLayerMetric) {
  const RunData& d = traced_run(GetParam());
  const Verdict v = evaluate(d);
  EXPECT_TRUE(v.correct) << (v.problems.empty() ? "" : v.problems.front());
  ASSERT_EQ(v.metrics.size(), per_layer_metrics().size());
  for (const auto& [m, value] : v.metrics) {
    if (!value) {
      EXPECT_TRUE(may_be_na(GetParam(), m.name))
          << m.name << " is n/a on " << GetParam();
    }
  }
  // The traced run keeps its whole timeline.
  const auto find = [&](const std::string& n) {
    for (const auto& [m, value] : v.metrics) {
      if (m.name == n) {
        return value;
      }
    }
    return std::optional<double>();
  };
  EXPECT_EQ(find("trace.dropped"), 0.0);
  EXPECT_GT(find("trace.events").value_or(0), 0.0);
  EXPECT_GT(find("trace.overhead_frac").value_or(0), 0.0);
  EXPECT_GT(find("ckpt.bytes").value_or(0), 0.0);
  EXPECT_EQ(find("failed_frac"), 0.0);
  EXPECT_EQ(find("net.audit_clean"), 1.0);
}

TEST_P(PerWorkload, FailedTracedOrCapturedRunFailsTheVerdict) {
  const RunData& base = traced_run(GetParam());
  const auto plant = [](IterationResult& r) {
    r.outcome.fail(1, "planted");
  };
  for (int which = 0; which < 3; ++which) {
    RunData d = base;
    if (which == 0) {
      plant(*d.traced);
    } else if (which == 1) {
      plant(*d.captured);
    } else {
      plant(d.reduced.back());
    }
    const Verdict v = evaluate(d);
    EXPECT_FALSE(v.correct) << which;
    EXPECT_EQ(v.failed, 1u) << which;
  }
}

TEST_P(PerWorkload, UntracedRunEmitsEveryEndToEndMetric) {
  SpanRecorder spans("test");
  MeasureOptions m;
  m.workload = GetParam();
  m.seconds = 0.01;
  m.work = tiny_work(GetParam());
  const Verdict v = evaluate(measure(m, spans));
  EXPECT_TRUE(v.correct);
  ASSERT_EQ(v.metrics.size(), end_to_end_metrics().size());
  for (const auto& [def, value] : v.metrics) {
    EXPECT_GT(value.value_or(0), 0.0) << def.name;
  }
  std::ostringstream os;
  print_result_line(v, os);
  EXPECT_EQ(os.str().rfind("{\"correct\": true, \"attempted\": ", 0), 0u);
}

TEST_P(PerWorkload, MissedDeadlineCountsUnfinishedOpsAsFailed) {
  SpanRecorder spans("test");
  IterationOptions o;
  o.work = tiny_work(GetParam());
  o.deadline = sv::sim::kMicrosecond;
  const IterationResult r = run_iteration(GetParam(), o, spans);
  EXPECT_FALSE(r.finished);
  EXPECT_GT(r.outcome.failed, 0u);
  EXPECT_LE(r.outcome.failed, r.outcome.attempted);
}

TEST_P(PerWorkload, OneSeedRepeatsExactly) {
  SpanRecorder spans("test");
  IterationOptions o;
  o.seed = iteration_seed(7, 0);
  o.work = tiny_work(GetParam());
  const IterationResult a = run_iteration(GetParam(), o, spans);
  const IterationResult b = run_iteration(GetParam(), o, spans);
  EXPECT_EQ(a.stats_crc, b.stats_crc);
  EXPECT_EQ(a.layers, b.layers);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             c = c == '-' ? '_' : c;
                           }
                           return n;
                         });

TEST(PerfbenchSeeds, RingDropPatternFollowsTheSeed) {
  SpanRecorder spans("test");
  IterationOptions a;
  a.seed = iteration_seed(1, 0);
  a.work = 20;
  IterationOptions b = a;
  b.seed = iteration_seed(1, 1);
  EXPECT_NE(run_iteration("ring-256", a, spans).stats_crc,
            run_iteration("ring-256", b, spans).stats_crc);
  EXPECT_NE(iteration_seed(1, 0), iteration_seed(2, 0));
}

TEST(PerfbenchOracles, ScomaAcceptsCoherentHistory) {
  ScomaOracle o(2, 4);
  o.stored(0, 3, ScomaOracle::encode(0, 1));
  o.stored(0, 3, ScomaOracle::encode(0, 2));
  o.loaded(1, 3, 0);
  o.loaded(1, 3, ScomaOracle::encode(0, 1));
  o.loaded(1, 3, ScomaOracle::encode(0, 1));
  o.loaded(1, 3, ScomaOracle::encode(0, 2));
  Outcome out;
  out.attempted = 10;
  EXPECT_EQ(o.check(out), 0u);
  EXPECT_EQ(out.failed, 0u);
}

TEST(PerfbenchOracles, ScomaRejectsReorderedObservation) {
  ScomaOracle o(2, 4);
  o.stored(0, 3, ScomaOracle::encode(0, 1));
  o.stored(0, 3, ScomaOracle::encode(0, 2));
  o.loaded(1, 3, ScomaOracle::encode(0, 2));
  o.loaded(1, 3, ScomaOracle::encode(0, 1));  // went backwards
  Outcome out;
  out.attempted = 10;
  EXPECT_EQ(o.check(out), 1u);
  EXPECT_EQ(out.failed, 1u);
}

TEST(PerfbenchOracles, ScomaRejectsValuesNeverStoredThere) {
  ScomaOracle o(2, 4);
  o.stored(0, 3, ScomaOracle::encode(0, 1));
  o.loaded(1, 2, ScomaOracle::encode(0, 1));  // stored to line 3, not 2
  o.loaded(1, 3, ScomaOracle::encode(1, 1));  // node 1 never stored
  o.loaded(1, 3, 0xDEADBEEF);                 // no such writer
  Outcome out;
  out.attempted = 10;
  EXPECT_EQ(o.check(out), 3u);
}

TEST(PerfbenchOracles, RingRejectsCorruptedOrReorderedPayload) {
  const RingPattern p{17};
  auto good = p.payload(5, 9, 64);
  EXPECT_TRUE(p.matches(5, 9, good));
  EXPECT_FALSE(p.matches(5, 8, good));  // duplicate or reordered
  EXPECT_FALSE(p.matches(4, 9, good));  // wrong sender
  good[13] ^= std::byte{1};
  EXPECT_FALSE(p.matches(5, 9, good));  // corrupted
}

TEST(PerfbenchOracles, RingCheckRejectsEachPlantedFault) {
  RingObservation clean;
  clean.finished = true;
  clean.consumed_ok = 100;
  clean.delivered = 100;
  clean.injected = 300;
  clean.net_delivered = 290;
  clean.dropped = 10;
  const auto failed = [](const RingObservation& o) {
    Outcome out;
    out.attempted = 100;
    check_ring(o, 100, out);
    return out.failed;
  };
  EXPECT_EQ(failed(clean), 0u);

  RingObservation bad = clean;
  bad.consumed_ok = 99;
  bad.consumed_bad = 1;
  EXPECT_EQ(failed(bad), 1u);
  bad = clean;
  bad.delivered = 101;  // a payload delivered twice
  EXPECT_GT(failed(bad), 0u);
  bad = clean;
  bad.give_ups = 1;
  EXPECT_EQ(failed(bad), 100u);
  bad = clean;
  bad.dropped = 9;  // a packet unaccounted for
  EXPECT_EQ(failed(bad), 100u);
  bad = clean;
  bad.finished = false;
  bad.consumed_ok = 60;
  bad.delivered = 60;
  EXPECT_EQ(failed(bad), 40u);
}

TEST(PerfbenchOracles, KvCheckRejectsEachPlantedFault) {
  const KvObservation clean{true, 0, 2 * 30, 75, 75};
  const auto failed = [](const KvObservation& o) {
    Outcome out;
    out.attempted = 30;
    check_kv(o, 30, out);
    return out.failed;
  };
  EXPECT_EQ(failed(clean), 0u);
  KvObservation bad = clean;
  bad.errors = 2;
  EXPECT_EQ(failed(bad), 2u);
  bad = clean;
  bad.ops = 59;
  EXPECT_EQ(failed(bad), 30u);
  bad = clean;
  bad.msgs_delivered = 74;
  EXPECT_EQ(failed(bad), 1u);
  bad = clean;
  bad.finished = false;
  EXPECT_EQ(failed(bad), 30u);
}

TEST(PerfbenchOracles, Fig4CheckFailsTheKiBOfUnverifiedApproaches) {
  const bool verified[5] = {true, true, false, true, false};
  Outcome out;
  out.attempted = 5 * 64;
  check_fig4(verified, 64, out);
  EXPECT_EQ(out.failed, 128u);
}

TEST(PerfbenchSpans, IterationSpansNestAndShareTheRunId) {
  SpanRecorder spans("run-42");
  IterationOptions o;
  o.work = tiny_work("scoma-mix");
  (void)run_iteration("scoma-mix", o, spans);
  const auto& s = spans.spans();
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front().name, "iteration");
  std::set<std::string> children;
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_NE(s[i].parent, SpanRecorder::kNoParent);
    EXPECT_GE(s[i].start_s, s[s[i].parent].start_s);
    EXPECT_LE(s[i].end_s, s[s[i].parent].end_s);
    if (s[i].parent == 0) {
      children.insert(s[i].name);
    }
  }
  EXPECT_EQ(children, (std::set<std::string>{"setup", "sim.run", "check",
                                             "sys.stats"}));
  EXPECT_GE(spans.self_s(0), 0.0);
  std::ostringstream os;
  spans.write_jsonl(os);
  EXPECT_NE(os.str().find("\"run\":\"run-42\""), std::string::npos);
}

}  // namespace
}  // namespace svbench
