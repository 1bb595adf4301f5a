#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "app/apps.hpp"
#include "ckpt/capture.hpp"
#include "msg/reliable.hpp"
#include "shm/scoma_region.hpp"
#include "sim/crc32.hpp"
#include "sim/random.hpp"
#include "sys/stats_dump.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_sink.hpp"
#include "xfer/approaches.hpp"

namespace svbench {

using namespace sv;

void Outcome::fail(std::uint64_t ops, const std::string& why) {
  failed = std::min(attempted, failed + ops);
  if (problems.size() < 8) {
    problems.push_back(why);
  }
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t iteration_seed(std::uint64_t seed, std::uint64_t k) {
  // splitmix64 over (seed, k).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + k + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- Oracles ----------------------------------------------------------------

ScomaOracle::ScomaOracle(std::size_t nodes, std::size_t lines)
    : nodes_(nodes), lines_(lines), line_of_store_(nodes) {}

std::uint32_t ScomaOracle::encode(std::size_t writer, std::uint32_t seq) {
  return static_cast<std::uint32_t>((writer + 1) << 24) | seq;
}

void ScomaOracle::stored(std::size_t writer, std::size_t line,
                         std::uint32_t value) {
  auto& log = line_of_store_.at(writer);
  if ((value & 0xFFFFFF) != log.size() + 1) {
    throw std::logic_error("ScomaOracle: stores must be logged in order");
  }
  log.push_back(static_cast<std::uint32_t>(line));
}

void ScomaOracle::loaded(std::size_t reader, std::size_t line,
                         std::uint32_t value) {
  loads_.push_back(Load{static_cast<std::uint32_t>(reader),
                        static_cast<std::uint32_t>(line), value});
}

std::uint64_t ScomaOracle::check(Outcome& out) const {
  // last[reader][line][writer]: highest writer seq this reader has seen.
  std::vector<std::uint32_t> last(nodes_ * lines_ * nodes_, 0);
  std::uint64_t bad = 0;
  for (const Load& l : loads_) {
    if (l.value == 0) {
      continue;  // initial contents
    }
    const std::size_t writer = (l.value >> 24) - 1;
    const std::uint32_t seq = l.value & 0xFFFFFF;
    char why[160];
    if (writer >= nodes_ || seq == 0 ||
        seq > line_of_store_[writer].size() ||
        line_of_store_[writer][seq - 1] != l.line) {
      std::snprintf(why, sizeof why,
                    "scoma: n%u read 0x%08x from line %u, never stored there",
                    l.reader, l.value, l.line);
      out.fail(1, why);
      ++bad;
      continue;
    }
    auto& seen = last[(l.reader * lines_ + l.line) * nodes_ + writer];
    if (seq < seen) {
      std::snprintf(why, sizeof why,
                    "scoma: n%u saw n%zu's store #%u on line %u after #%u",
                    l.reader, writer, seq, l.line, seen);
      out.fail(1, why);
      ++bad;
      continue;
    }
    seen = seq;
  }
  return bad;
}

std::vector<std::byte> RingPattern::payload(std::size_t src,
                                            std::uint64_t index,
                                            std::size_t bytes) const {
  std::vector<std::byte> p(bytes);
  for (std::size_t b = 0; b < bytes; ++b) {
    p[b] = static_cast<std::byte>(src * 131 + index * 7 + b + salt);
  }
  return p;
}

bool RingPattern::matches(std::size_t src, std::uint64_t index,
                          std::span<const std::byte> got) const {
  const auto want = payload(src, index, got.size());
  return !got.empty() && std::equal(want.begin(), want.end(), got.begin());
}

void check_kv(const KvObservation& o, std::uint64_t requests, Outcome& out) {
  if (!o.finished) {
    out.fail(requests, "kv: simulated deadline passed before every rank "
                       "finished");
    return;
  }
  if (o.errors != 0) {
    out.fail(o.errors, "kv: AppResult.errors = " + std::to_string(o.errors));
  }
  // Servers and clients each count one op per request.
  if (o.ops != 2 * requests) {
    out.fail(requests, "kv: " + std::to_string(o.ops) +
                           " server+client ops, expected " +
                           std::to_string(2 * requests));
  }
  if (o.msgs_sent != o.msgs_delivered) {
    out.fail(static_cast<std::uint64_t>(std::abs(o.msgs_sent -
                                                 o.msgs_delivered)),
             "kv: app messages sent " + std::to_string(o.msgs_sent) +
                 " != delivered " + std::to_string(o.msgs_delivered));
  }
}

void check_fig4(std::span<const bool> verified, std::uint64_t kib,
                Outcome& out) {
  for (std::size_t a = 0; a < verified.size(); ++a) {
    if (!verified[a]) {
      out.fail(kib, "fig4: approach " + std::to_string(a + 1) +
                        " failed byte-verify or its deadline");
    }
  }
}

void check_ring(const RingObservation& o, std::uint64_t payloads,
                Outcome& out) {
  if (o.consumed_bad != 0) {
    out.fail(o.consumed_bad,
             "ring: " + std::to_string(o.consumed_bad) +
                 " payloads arrived out of order, twice or corrupted");
  }
  const std::uint64_t consumed = o.consumed_ok + o.consumed_bad;
  const std::uint64_t missing = payloads - std::min(payloads, consumed);
  if (!o.finished || missing != 0) {
    out.fail(missing, "ring: " + std::to_string(missing) +
                          " payloads missing at the simulated deadline");
  }
  if (o.delivered != consumed) {
    out.fail(o.delivered > consumed ? o.delivered - consumed
                                    : consumed - o.delivered,
             "ring: channels delivered " + std::to_string(o.delivered) +
                 " payloads, receivers consumed " + std::to_string(consumed));
  }
  if (o.give_ups != 0) {
    out.fail(payloads, "ring: retransmission gave up " +
                           std::to_string(o.give_ups) + " times");
  }
  if (o.injected != o.net_delivered + o.dropped) {
    out.fail(payloads, "ring: network audit injected " +
                           std::to_string(o.injected) + " != delivered " +
                           std::to_string(o.net_delivered) + " + dropped " +
                           std::to_string(o.dropped));
  }
}

// --- Workloads --------------------------------------------------------------

namespace {

/// Machine parameters shared by every workload (svsim's defaults).
sys::Machine::Params base_params(std::size_t nodes) {
  sys::Machine::Params p;
  p.nodes = nodes;
  p.radix = 4;
  p.net = sys::Machine::NetKind::kFatTree;
  p.threads = 0;
  p.node.dram_size = 16ull * 1024 * 1024;
  p.node.scoma_size = 2ull * 1024 * 1024;
  return p;
}

/// One workload instance. The machine lives in the base so it outlives
/// every endpoint, channel and coroutine the derived class owns.
class Workload {
 public:
  Workload(const IterationOptions& o, std::uint64_t default_work,
           sim::Tick default_deadline)
      : seed_(o.seed),
        work_(o.work != 0 ? o.work : default_work),
        deadline_(o.deadline != 0 ? o.deadline : default_deadline) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual sys::Machine::Params params() const = 0;
  /// Endpoints, channels, programs: everything before the first event.
  virtual void setup(SpanRecorder& spans, IterationResult& r) = 0;
  /// Drive to completion; false when the simulated deadline came first.
  virtual bool run() = 0;
  /// Apply the output oracle.
  virtual void check(bool finished, Outcome& out) = 0;
  /// Ops this instance attempts.
  [[nodiscard]] virtual std::uint64_t ops() const = 0;
  /// Counters the machine-wide collect_stats does not know about.
  virtual void add_stats(sim::StatRegistry& /*reg*/) const {}
  /// Workload-specific per-layer values (app, msg, shm, xfer); `reg` is
  /// the dumped registry, add_stats() included.
  virtual void layers(const sim::StatRegistry& /*reg*/,
                      LayerValues& /*out*/) const {}
  [[nodiscard]] virtual const app::World* world() const { return nullptr; }

  void construct() { machine_ = std::make_unique<sys::Machine>(params()); }
  [[nodiscard]] sys::Machine& machine() { return *machine_; }

 protected:
  [[nodiscard]] sim::Tick deadline_abs() {
    return machine_->now() + deadline_;
  }

  std::uint64_t seed_;
  std::uint64_t work_;
  sim::Tick deadline_;

 private:
  std::unique_ptr<sys::Machine> machine_;
};

// kv-msg: app.kv over the msg transport, one rank per node on 16 nodes.
class KvMsg final : public Workload {
 public:
  static constexpr std::size_t kNodes = 16;
  explicit KvMsg(const IterationOptions& o)
      : Workload(o, 150, 100 * sim::kMillisecond) {}

  sys::Machine::Params params() const override { return base_params(kNodes); }

  void setup(SpanRecorder& spans, IterationResult& r) override {
    app::World::Params wp;
    wp.transport = app::TransportKind::kMsg;
    world_ = std::make_unique<app::World>(machine(), wp);
    app::KvParams kp;
    kp.requests = work_;
    kp.seed = seed_;
    const auto program = app::make_kv(kp, &result_);
    double launch_s = 0;
    {
      ScopedSpan s(spans, "app.launch", &launch_s);
      world_->launch(program);
    }
    r.launch_s = launch_s;
  }

  bool run() override {
    return sys::run_until(
        machine(), [this] { return world_->done(); }, deadline_abs());
  }

  std::uint64_t ops() const override { return (kNodes - 1) * work_; }

  void check(bool finished, Outcome& out) override {
    sim::StatRegistry reg;
    world_->add_stats(reg);
    check_kv(KvObservation{finished, result_.errors, result_.ops,
                           reg.get("app.total.msgs_sent"),
                           reg.get("app.total.msgs_delivered")},
             ops(), out);
  }

  void add_stats(sim::StatRegistry& reg) const override {
    world_->add_stats(reg);
  }

  void layers(const sim::StatRegistry& reg,
              LayerValues& out) const override {
    const double msgs = reg.get("app.total.msgs_sent");
    const double frames = reg.get("app.total.frames_sent");
    out["app.msgs_sent"] = msgs;
    out["app.frames_sent"] = frames;
    out["app.frames_per_msg"] =
        msgs > 0 ? std::optional<double>(frames / msgs) : std::nullopt;
  }

  const app::World* world() const override { return world_.get(); }

 private:
  std::unique_ptr<app::World> world_;
  app::AppResult result_;
};

// fig4-sweep: the paper's Figure-4 block transfer, approaches 1-5.
class Fig4Sweep final : public Workload {
 public:
  // Buffer bases (svsim's): source and DRAM destination, and the S-COMA
  // destination's offset into a region of kScomaBytes.
  static constexpr mem::Addr kSrc = 0x0010'0000;
  static constexpr mem::Addr kDramDst = 0x0040'0000;
  static constexpr mem::Addr kScomaDst = 0x8000;
  static constexpr mem::Addr kScomaBytes = 4ull * 1024 * 1024;
  explicit Fig4Sweep(const IterationOptions& o)
      : Workload(o, 1024, 500 * sim::kMillisecond) {
    // The seed places source and destination buffers (page-aligned).
    sim::Rng rng(seed_);
    src_off_ = rng.below(64) * 4096;
    dst_off_ = rng.below(64) * 4096;
  }

  sys::Machine::Params params() const override {
    auto p = base_params(2);
    // Approaches 4/5 manage clsSRAM state themselves; the destination
    // buffer must fit in the S-COMA region.
    p.node.enable_scoma = false;
    p.node.scoma_size = kScomaBytes;
    return p;
  }

  void setup(SpanRecorder& /*spans*/, IterationResult& /*r*/) override {
    harness_ = std::make_unique<xfer::BlockTransferHarness>(machine());
  }

  [[nodiscard]] std::uint32_t len() const {
    return static_cast<std::uint32_t>(work_ * 1024);
  }

  bool run() override {
    if (kSrc + src_off_ + len() > kDramDst ||
        kScomaDst + dst_off_ + len() > kScomaBytes) {
      throw std::invalid_argument("fig4-sweep: transfer too large");
    }
    bool all = true;
    for (int a = 1; a <= 5; ++a) {
      xfer::TransferSpec spec;
      spec.src = kSrc + src_off_;
      spec.dst = a >= 4 ? niu::kScomaBase + kScomaDst + dst_off_
                        : kDramDst + dst_off_;
      spec.len = len();
      xfer::RunOptions opt;
      opt.consume = a >= 4;  // the receiver reads the S-COMA data
      opt.deadline = deadline_;
      res_[a - 1] = harness_->run(a, spec, opt);
      all = all && res_[a - 1].ok;
    }
    return all;
  }

  std::uint64_t ops() const override { return 5 * work_; }

  void check(bool /*finished*/, Outcome& out) override {
    bool verified[5];
    for (int a = 0; a < 5; ++a) {
      verified[a] = res_[a].ok;
    }
    check_fig4(verified, work_, out);
  }

  void layers(const sim::StatRegistry& /*reg*/,
              LayerValues& out) const override {
    for (int a = 1; a <= 5; ++a) {
      const auto& r = res_[a - 1];
      const std::string p = "xfer.a" + std::to_string(a) + ".";
      out[p + "mbps"] = r.bandwidth_mbps(len());
      out[p + "notify_us"] = static_cast<double>(r.latency()) / 1e6;
    }
  }

 private:
  std::uint64_t src_off_ = 0;
  std::uint64_t dst_off_ = 0;
  std::unique_ptr<xfer::BlockTransferHarness> harness_;
  xfer::TransferResult res_[5];
};

// scoma-mix: 8 nodes of seeded 50/50 S-COMA loads and stores over 16
// shared lines.
class ScomaMix final : public Workload {
 public:
  static constexpr std::size_t kNodes = 8;
  static constexpr std::size_t kLines = 16;
  explicit ScomaMix(const IterationOptions& o)
      : Workload(o, 400, 100 * sim::kMillisecond), oracle_(kNodes, kLines) {}

  sys::Machine::Params params() const override { return base_params(kNodes); }

  void setup(SpanRecorder& /*spans*/, IterationResult& /*r*/) override {
    done_.assign(kNodes, 0);
    for (sim::NodeId n = 0; n < kNodes; ++n) {
      machine().node(n).ap().run(node_program(n));
    }
  }

  bool run() override {
    return sys::run_until(
        machine(),
        [this] {
          return std::all_of(done_.begin(), done_.end(),
                             [this](std::uint64_t d) { return d == work_; });
        },
        deadline_abs());
  }

  std::uint64_t ops() const override { return kNodes * work_; }

  void check(bool finished, Outcome& out) override {
    if (!finished) {
      std::uint64_t unfinished = 0;
      for (const auto d : done_) {
        unfinished += work_ - d;
      }
      out.fail(unfinished, "scoma: simulated deadline passed with " +
                               std::to_string(unfinished) +
                               " ops unfinished");
    }
    oracle_.check(out);
  }

  void layers(const sim::StatRegistry& /*reg*/,
              LayerValues& out) const override {
    auto load = load_us_;
    auto store = store_us_;
    out["shm.load_sim_us_p50"] = percentile(load, 50);
    out["shm.load_sim_us_p99"] = percentile(load, 99);
    out["shm.store_sim_us_p50"] = percentile(store, 50);
    out["shm.store_sim_us_p99"] = percentile(store, 99);
  }

 private:
  sim::Co<void> node_program(sim::NodeId n) {
    sim::Kernel& k = machine().domain(n);
    sim::Rng rng(seed_ ^ (0x9e3779b97f4a7c15ull * (n + 1)));
    shm::ScomaRegion sc(machine().node(n).ap());
    std::uint32_t seq = 0;
    for (std::uint64_t i = 0; i < work_; ++i) {
      const std::size_t line = rng.below(kLines);
      const mem::Addr off = 0x1000 + line * 64;
      const sim::Tick t0 = k.now();
      if (rng.chance(0.5)) {
        const std::uint32_t v = ScomaOracle::encode(n, ++seq);
        co_await sc.store<std::uint32_t>(off, v);
        store_us_.push_back(static_cast<double>(k.now() - t0) / 1e6);
        oracle_.stored(n, line, v);
      } else {
        const auto v = co_await sc.load<std::uint32_t>(off);
        load_us_.push_back(static_cast<double>(k.now() - t0) / 1e6);
        oracle_.loaded(n, line, v);
      }
      ++done_[n];
    }
  }

  ScomaOracle oracle_;
  std::vector<std::uint64_t> done_;
  std::vector<double> load_us_;
  std::vector<double> store_us_;
};

// ring-256: a ReliableChannel ring on a 256-node fat tree with seeded
// packet drops.
class Ring256 final : public Workload {
 public:
  static constexpr std::size_t kNodes = 256;
  static constexpr std::size_t kBytes = 64;
  static constexpr double kDropRate = 0.001;
  explicit Ring256(const IterationOptions& o)
      : Workload(o, 10, 20 * sim::kMillisecond) {
    pattern_.salt = sim::Rng(seed_).below(251);
  }

  sys::Machine::Params params() const override {
    auto p = base_params(kNodes);
    p.fault.seed = seed_;
    p.fault.drop_rate = kDropRate;
    return p;
  }

  void setup(SpanRecorder& /*spans*/, IterationResult& /*r*/) override {
    sys::Machine& m = machine();
    const auto map = m.addr_map();
    received_.assign(kNodes, 0);
    bad_.assign(kNodes, 0);
    for (sim::NodeId n = 0; n < kNodes; ++n) {
      eps_.push_back(std::make_unique<msg::Endpoint>(
          m.node(n).ap(), m.node(n).endpoint_config()));
      chans_.push_back(std::make_unique<msg::ReliableChannel>(
          *eps_[n], map, n, msg::ReliableChannel::Params{}));
      chans_[n]->set_give_up([this, n](sim::NodeId /*peer*/) {
        ++give_ups_;
        machine().node(n).niu().ctrl().shutdown_tx_queue(
            sys::Node::kTxUser0);
      });
      chans_[n]->start();
    }
    for (sim::NodeId n = 0; n < kNodes; ++n) {
      m.node(n).ap().run(node_program(n));
    }
  }

  bool run() override {
    return sys::run_until(
        machine(),
        [this] {
          for (std::size_t n = 0; n < kNodes; ++n) {
            if (received_[n] + bad_[n] < work_) {
              return false;
            }
          }
          // The last ACKs are still in flight when the last payload is
          // consumed; the audit is only meaningful once they land.
          return machine().network().audit().balanced();
        },
        deadline_abs());
  }

  std::uint64_t ops() const override { return kNodes * work_; }

  void check(bool finished, Outcome& out) override {
    RingObservation o;
    o.finished = finished;
    for (std::size_t n = 0; n < kNodes; ++n) {
      o.consumed_ok += received_[n];
      o.consumed_bad += bad_[n];
      o.delivered += chans_[n]->stats().payloads_delivered.value();
    }
    o.give_ups = give_ups_;
    const auto audit = machine().network().audit();
    o.injected = audit.injected;
    o.net_delivered = audit.delivered;
    o.dropped = audit.dropped;
    check_ring(o, ops(), out);
  }

  void layers(const sim::StatRegistry& /*reg*/,
              LayerValues& out) const override {
    auto send = send_us_;
    out["msg.send_sim_us_p50"] = percentile(send, 50);
    out["msg.send_sim_us_p99"] = percentile(send, 99);
    double retx = 0;
    double frames = 0;
    double corrupt = 0;
    for (const auto& ch : chans_) {
      retx += static_cast<double>(ch->stats().retransmitted.value());
      frames += static_cast<double>(ch->stats().frames_sent.value());
      corrupt += static_cast<double>(ch->stats().corrupt_rejected.value());
    }
    out["msg.retransmits"] = retx;
    out["msg.retransmit_frac"] =
        frames > 0 ? std::optional<double>(retx / frames) : std::nullopt;
    out["msg.corrupt_rejected"] = corrupt;
  }

 private:
  // Every node streams work_ payloads to its right neighbour, then
  // consumes work_ from its left one, checking each against the pattern.
  sim::Co<void> node_program(sim::NodeId self) {
    sim::Kernel& k = machine().domain(self);
    msg::ReliableChannel& ch = *chans_[self];
    const auto right = static_cast<sim::NodeId>((self + 1) % kNodes);
    const auto left = static_cast<sim::NodeId>((self + kNodes - 1) % kNodes);
    for (std::uint64_t i = 0; i < work_; ++i) {
      const auto payload = pattern_.payload(self, i, kBytes);
      const sim::Tick t0 = k.now();
      co_await ch.send(right, payload);
      send_us_.push_back(static_cast<double>(k.now() - t0) / 1e6);
    }
    for (std::uint64_t i = 0; i < work_; ++i) {
      const auto got = co_await ch.recv(left);
      if (pattern_.matches(left, i, got) && got.size() == kBytes) {
        ++received_[self];
      } else {
        ++bad_[self];
      }
    }
  }

  RingPattern pattern_;
  std::vector<std::unique_ptr<msg::Endpoint>> eps_;
  std::vector<std::unique_ptr<msg::ReliableChannel>> chans_;
  std::vector<std::uint64_t> received_;
  std::vector<std::uint64_t> bad_;
  std::vector<double> send_us_;
  std::uint64_t give_ups_ = 0;
};

std::unique_ptr<Workload> make(const std::string& name,
                               const IterationOptions& o) {
  if (name == "kv-msg") {
    return std::make_unique<KvMsg>(o);
  }
  if (name == "fig4-sweep") {
    return std::make_unique<Fig4Sweep>(o);
  }
  if (name == "scoma-mix") {
    return std::make_unique<ScomaMix>(o);
  }
  if (name == "ring-256") {
    return std::make_unique<Ring256>(o);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Per-node registry keys "n<i>.<unit>.<metric>" folded by "<unit>.<metric>".
class NodeStats {
 public:
  explicit NodeStats(const sim::StatRegistry& reg) {
    for (const auto& [name, value] : reg.all()) {
      if (name.size() < 3 || name[0] != 'n' || name[1] < '0' ||
          name[1] > '9') {
        continue;
      }
      const auto dot = name.find('.');
      by_key_[name.substr(dot + 1)].push_back(value);
    }
  }
  [[nodiscard]] bool has(const std::string& k) const {
    return by_key_.count(k) != 0;
  }
  [[nodiscard]] double sum(const std::string& k) const {
    double s = 0;
    if (const auto it = by_key_.find(k); it != by_key_.end()) {
      for (const double v : it->second) {
        s += v;
      }
    }
    return s;
  }
  [[nodiscard]] double max(const std::string& k) const {
    double m = 0;
    if (const auto it = by_key_.find(k); it != by_key_.end()) {
      for (const double v : it->second) {
        m = std::max(m, v);
      }
    }
    return m;
  }
  [[nodiscard]] std::optional<double> mean(const std::string& k) const {
    const auto it = by_key_.find(k);
    if (it == by_key_.end() || it->second.empty()) {
      return std::nullopt;
    }
    return sum(k) / static_cast<double>(it->second.size());
  }
  /// sum(k), or n/a when no node publishes k.
  [[nodiscard]] std::optional<double> sum_if(const std::string& k) const {
    return has(k) ? std::optional<double>(sum(k)) : std::nullopt;
  }

 private:
  std::map<std::string, std::vector<double>> by_key_;
};

std::optional<double> ratio(double num, double den) {
  return den > 0 ? std::optional<double>(num / den) : std::nullopt;
}

/// Layer values every workload has, from the collect_stats registry.
void registry_layers(const sim::StatRegistry& reg, std::uint64_t executed,
                     double ops, LayerValues& L) {
  const NodeStats n(reg);
  const double scheduled = reg.get("sim.events");
  L["sim.events"] = static_cast<double>(executed);
  L["sim.events_per_op"] = ratio(static_cast<double>(executed), ops);
  L["sim.bypass_frac"] =
      ratio(scheduled - static_cast<double>(executed), scheduled);

  L["cpu.aP_busy_us"] = n.sum("aP.busy_us");
  L["cpu.aP_occupancy_max"] = n.max("aP.occupancy");
  L["cpu.sP_occupancy_mean"] = n.mean("sP.occupancy");

  const double tx = n.sum("bus.transactions");
  L["mem.bus_transactions"] = tx;
  L["mem.bus_tx_per_op"] = ratio(tx, ops);
  L["mem.bus_retry_frac"] = ratio(n.sum("bus.retries"), tx);
  L["mem.bus_data_occupancy_mean"] = n.mean("bus.data_occupancy");
  const double hits = n.sum("cache.read_hits") + n.sum("cache.write_hits");
  const double misses =
      n.sum("cache.read_misses") + n.sum("cache.write_misses");
  L["mem.cache_hit_frac"] = ratio(hits, hits + misses);
  L["mem.cache_writebacks"] = n.sum("cache.writebacks");
  L["mem.snoop_invalidates"] = n.sum("cache.snoop_invalidates");

  L["niu.msgs_launched"] = n.sum("ctrl.msgs_launched");
  L["niu.msgs_received"] = n.sum("ctrl.msgs_received");
  const double rx_hits = n.sum("ctrl.rx_hits");
  const double rx_misses = n.sum("ctrl.rx_misses");
  L["niu.rx_miss_frac"] = ratio(rx_misses, rx_hits + rx_misses);
  L["niu.rx_dropped"] = n.sum("ctrl.rx_dropped");
  L["niu.block_ops"] = n.sum("ctrl.block_ops");
  L["niu.ibus_occupancy_mean"] = n.mean("ctrl.ibus_occupancy");
  L["niu.pointer_updates"] = n.sum("abiu.pointer_updates");
  L["niu.scoma_checks"] = n.sum("abiu.scoma_checks");
  L["niu.scoma_retries"] = n.sum("abiu.scoma_retries");

  L["fw.sP_busy_us"] = n.sum("sP.busy_us");
  L["fw.miss_serviced"] = n.sum_if("miss_service.serviced");
  L["fw.scoma_grants"] = n.sum_if("scoma.grants");
  L["fw.scoma_recalls"] = n.sum_if("scoma.recalls");
  L["fw.scoma_invalidations"] = n.sum_if("scoma.invalidations");
  L["fw.numa_remote_ops"] =
      n.has("numa.remote_loads")
          ? std::optional<double>(n.sum("numa.remote_loads") +
                                  n.sum("numa.remote_stores"))
          : std::nullopt;

  const double injected = reg.get("net.packets_injected");
  const double delivered = reg.get("net.packets_delivered");
  const double dropped = reg.get("net.packets_dropped");
  L["net.packets_injected"] = injected;
  L["net.packets_delivered"] = delivered;
  L["net.packets_dropped"] = dropped;
  L["net.mean_transit_us"] =
      delivered > 0 ? std::optional<double>(reg.get("net.mean_transit_us"))
                    : std::nullopt;
  L["net.audit_clean"] = injected == delivered + dropped ? 1.0 : 0.0;
}

/// trace.* values from a Chrome trace file, via trace::TraceAnalysis.
void trace_layers(const std::string& path, LayerValues& L) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  const auto a = trace::TraceAnalysis::parse(in);
  for (const char* cat : {"bus", "cpu", "niu", "fw", "link", "router"}) {
    double sum = 0;
    std::size_t count = 0;
    for (std::size_t t = 0; t < a.tracks.size(); ++t) {
      if (a.tracks[t].category == cat && a.tracks[t].spans > 0) {
        sum += a.occupancy(t);
        ++count;
      }
    }
    L[std::string("trace.busy_frac.") + cat] =
        count > 0 ? std::optional<double>(sum / static_cast<double>(count))
                  : std::nullopt;
  }
  std::vector<double> lat_us;
  std::map<std::string, double> by_cat;
  double total = 0;
  for (const auto& f : a.flows()) {
    lat_us.push_back(static_cast<double>(f.latency_ps()) / 1e6);
    for (const auto& [cat, ps] : f.by_category_ps) {
      by_cat[cat] += static_cast<double>(ps);
      total += static_cast<double>(ps);
    }
  }
  const bool flows = !lat_us.empty();
  L["trace.flow_lat_p50_us"] =
      flows ? std::optional<double>(percentile(lat_us, 50)) : std::nullopt;
  L["trace.flow_lat_p99_us"] =
      flows ? std::optional<double>(percentile(lat_us, 99)) : std::nullopt;
  for (const char* cat : {"bus", "niu", "link", "router"}) {
    L[std::string("trace.flow_share.") + cat] = ratio(by_cat[cat], total);
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"kv-msg", "fig4-sweep",
                                                 "scoma-mix", "ring-256"};
  return names;
}

namespace {

/// Construction through launch: the interval setup_s measures.
std::unique_ptr<Workload> set_up(const std::string& workload,
                                 const IterationOptions& options,
                                 SpanRecorder& spans, IterationResult& r) {
  ScopedSpan s(spans, "setup", &r.setup_s);
  auto w = make(workload, options);
  {
    ScopedSpan c(spans, "sys.construct", &r.construct_s);
    w->construct();
  }
  if (options.trace_capacity != 0) {
    w->machine().enable_tracing(options.trace_capacity);
  }
  w->setup(spans, r);
  return w;
}

}  // namespace

IterationResult run_iteration(const std::string& workload,
                              const IterationOptions& options,
                              SpanRecorder& spans) {
  IterationResult r;
  ScopedSpan iter(spans, "iteration");
  const auto t0 = std::chrono::steady_clock::now();
  const auto w = set_up(workload, options, spans, r);
  sys::Machine& m = w->machine();
  {
    ScopedSpan s(spans, "sim.run", &r.run_s);
    r.finished = w->run();
  }
  r.outcome.attempted = w->ops();
  {
    ScopedSpan s(spans, "check");
    w->check(r.finished, r.outcome);
  }
  sim::StatRegistry reg;
  {
    ScopedSpan s(spans, "sys.stats", &r.stats_s);
    reg = sys::collect_stats(m);
    w->add_stats(reg);
    std::ostringstream os;
    reg.dump_json(os);
    const std::string dump = os.str();
    r.stats_crc = sim::crc32(std::as_bytes(std::span(dump)));
  }
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();

  r.events_executed = m.events_executed();
  registry_layers(reg, r.events_executed,
                  static_cast<double>(r.outcome.attempted), r.layers);
  w->layers(reg, r.layers);

  if (options.capture) {
    ScopedSpan s(spans, "ckpt.capture", &r.capture_s);
    const auto snap = ckpt::capture(
        m, "workload=" + workload + "\nseed=" + std::to_string(options.seed) +
               "\n",
        w->world());
    r.layers["ckpt.bytes"] = static_cast<double>(snap.serialize().size());
  }
  if (options.trace_capacity != 0) {
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    for (const auto* t : m.tracers()) {
      recorded += t->recorded();
      dropped += t->dropped();
    }
    r.layers["trace.events"] = static_cast<double>(recorded);
    r.layers["trace.dropped"] = static_cast<double>(dropped);
    {
      ScopedSpan s(spans, "trace.write", &r.trace_write_s);
      trace::write_chrome_trace_file(m.tracers(), options.trace_path,
                                     trace::ChromeWriteOptions{m.now()});
    }
    {
      ScopedSpan s(spans, "trace.analyse");
      trace_layers(options.trace_path, r.layers);
    }
    std::filesystem::remove(options.trace_path);
  }
  return r;
}

}  // namespace svbench
