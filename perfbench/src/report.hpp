// Metric definitions, aggregation over iterations, and the two outputs of
// one benchmark run: a human-readable report and the final JSON line.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace svbench {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "higher" | "lower"
};

/// What a user of the simulator sees, measured with tracing off.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, named after src/ modules (plus the oracle verdict).
const std::vector<MetricDef>& per_layer_metrics();

/// Everything one benchmark process measured.
struct RunData {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced_mode = false;
  /// Full-size untraced iterations (the end-to-end sample). Iteration k
  /// runs the input of iteration_seed(seed, k).
  std::vector<IterationResult> iterations;
  /// The first iteration's input once more: must reproduce its stats.
  std::optional<IterationResult> rerun;
  double peak_rss_mb = 0;     // one iteration, in a fresh process
  double process_rss_mb = 0;  // this process, after every iteration
  // --trace 1 only.
  std::optional<IterationResult> captured;  // full size, ckpt::capture'd
  std::optional<IterationResult> traced;    // reduced size, traced
  std::vector<IterationResult> reduced;     // same reduced size, untraced
};

struct MeasureOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // host-time budget of the measured phases
  bool traced = false;  // also capture, and trace a reduced instance
  std::uint64_t work = 0;          // 0 = the workload's default
  std::uint64_t reduced_work = 0;  // traced instance; 0 = the default
  std::string trace_path = "svbench.trace.json";
};

/// Measure one workload: peak-RSS probe iterations in forked children,
/// then full iterations until the budget is spent (each on
/// iteration_seed(seed, k)), and a re-run of the first input. Traced mode
/// adds a ckpt::capture'd full iteration and the reduced instance, untraced
/// a few times and traced once.
RunData measure(const MeasureOptions& m, SpanRecorder& spans);

/// Median, sample count, and the highest percentile of {75, 90, 95, 99}
/// with at least ten samples beyond it.
struct Summary {
  double median = 0;
  std::size_t n = 0;
  std::optional<double> high_p;
  std::optional<double> high_value;
};
Summary summarize(std::vector<double> v);

struct Verdict {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;
  std::vector<std::string> problems;
  /// End-to-end metrics (untraced mode) or per-layer metrics (traced).
  std::vector<std::pair<MetricDef, std::optional<double>>> metrics;
};

Verdict evaluate(const RunData& d);

void print_report(const RunData& d, const Verdict& v, std::ostream& os);
/// The last line of standard output:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
/// n/a values are written as 0.
void print_result_line(const Verdict& v, std::ostream& os);

}  // namespace svbench
