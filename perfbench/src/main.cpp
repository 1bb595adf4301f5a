// svbench: the simulator's end-to-end benchmark program.
//
//   svbench --workload NAME --seed N --seconds S --trace 0|1
//           [--spans FILE] [--trace-file FILE]
//
// Runs one canonical workload (kv-msg, fig4-sweep, scoma-mix, ring-256)
// sequentially (threads=0) for about S seconds of host time (see
// svbench::measure and README.md). Prints a human-readable report and,
// as the last line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exit code 0 whenever
// the run completed, whether or not its outputs verified; 1 when it could
// not complete; 2 on bad arguments.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "report.hpp"

namespace {

using namespace svbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_file;
  std::string trace_file = "svbench.trace.json";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "svbench: %s\nusage: svbench --workload "
               "kv-msg|fig4-sweep|scoma-mix|ring-256 --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--trace-file FILE]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || s[0] == '-' || *end != '\0' || errno != 0) {
    usage(flag + " needs a non-negative integer, got '" + s + "'");
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const auto s = parse_u64(flag, value);
      if (s < 1 || s > 120) {
        usage("--seconds must be 1..120");
      }
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans_file = value;
    } else if (flag == "--trace-file") {
      a.trace_file = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  bool known = false;
  for (const auto& w : workload_names()) {
    known = known || w == a.workload;
  }
  if (!known) {
    usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  SpanRecorder spans(args.workload + "/seed" + std::to_string(args.seed));
  MeasureOptions m;
  m.workload = args.workload;
  m.seed = args.seed;
  m.seconds = args.seconds;
  m.traced = args.trace;
  m.trace_path = args.trace_file;
  RunData d;
  try {
    d = measure(m, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svbench: %s\n", e.what());
    return 1;
  }

  const Verdict v = evaluate(d);
  print_report(d, v, std::cout);
  std::cout << "host time by span (this process):\n";
  spans.write_summary(std::cout);
  if (!args.spans_file.empty()) {
    std::ofstream os(args.spans_file);
    spans.write_jsonl(os);
    if (!os) {
      std::fprintf(stderr, "svbench: cannot write %s\n",
                   args.spans_file.c_str());
      return 1;
    }
    std::printf("spans: %zu -> %s\n", spans.spans().size(),
                args.spans_file.c_str());
  }
  std::cout.flush();
  print_result_line(v, std::cout);
  return 0;
}
