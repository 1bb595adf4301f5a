// Host-time spans the benchmark records around its own calls into the
// simulator: name, start, end, the span that caused it, and the run id
// shared by every span of one benchmark process. Spans stay in memory and
// are written out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace svbench {

class SpanRecorder {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    double start_s = 0;  // since the recorder was created
    double end_s = 0;
    std::size_t parent = kNoParent;
  };

  explicit SpanRecorder(std::string run_id)
      : run_id_(std::move(run_id)), t0_(Clock::now()) {}

  /// Open a span under the innermost open one.
  std::size_t begin(std::string name) {
    const std::size_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back(Span{std::move(name), since_start(), 0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Close span `id` (the innermost open one); returns its duration.
  double end(std::size_t id) {
    spans_[id].end_s = since_start();
    open_.pop_back();
    return spans_[id].end_s - spans_[id].start_s;
  }

  /// Self time: duration minus the part covered by direct children.
  [[nodiscard]] double self_s(std::size_t id) const {
    double s = spans_[id].end_s - spans_[id].start_s;
    for (const Span& c : spans_) {
      if (c.parent == id) {
        s -= c.end_s - c.start_s;
      }
    }
    return s;
  }

  /// Per span name: count, total and self seconds, one line each.
  void write_summary(std::ostream& os) const {
    struct Total {
      std::size_t count = 0;
      double total_s = 0;
      double self_s = 0;
    };
    std::map<std::string, Total> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Total& t = by_name[spans_[i].name];
      ++t.count;
      t.total_s += spans_[i].end_s - spans_[i].start_s;
      t.self_s += self_s(i);
    }
    char line[160];
    for (const auto& [name, t] : by_name) {
      std::snprintf(line, sizeof line,
                    "  %-16s %5zu spans %10.4f s total %10.4f s self\n",
                    name.c_str(), t.count, t.total_s, t.self_s);
      os << line;
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::string& run_id() const { return run_id_; }

  /// One JSON object per line: {"run","id","name","parent","start_s","end_s"}.
  void write_jsonl(std::ostream& os) const {
    os.precision(9);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"run\":\"" << run_id_ << "\",\"id\":" << i << ",\"name\":\""
         << s.name << "\",\"parent\":";
      if (s.parent == kNoParent) {
        os << "null";
      } else {
        os << s.parent;
      }
      os << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
         << "}\n";
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double since_start() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  std::string run_id_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Closes a span at scope exit and stores its duration.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, double* seconds = nullptr)
      : rec_(rec), id_(rec.begin(std::move(name))), seconds_(seconds) {}
  ~ScopedSpan() {
    const double d = rec_.end(id_);
    if (seconds_ != nullptr) {
      *seconds_ = d;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::size_t id_;
  double* seconds_;
};

}  // namespace svbench
