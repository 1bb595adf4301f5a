// Restore-then-replay bit-identity (DESIGN.md §14): checkpoint a workload
// mid-run, rebuild an identical machine, replay it to the capture tick,
// and assert the re-captured state matches the snapshot byte for byte —
// then run both machines to completion and assert the final state, the
// stats JSON and (where tracing is on) the canonical trace-span dump are
// also byte-identical. The sweep covers every canonical workload
// {msg, shm, reliable, app.*}, both fast-path settings and sequential +
// partitioned kernels, because the restore contract is exactly "replay
// equals the uninterrupted run" and that must hold wherever the
// determinism contract does.
//
// The committed corpus entry tests/ckpt/reliable_ring.svck additionally
// pins the on-disk format: if a ckpt_save() changes shape, this suite
// fails until the snapshot version is bumped and the corpus regenerated
// (tools/svexplore write_snapshot=...).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/scenario.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

void expect_verify_ok(const ckpt::Snapshot& expected,
                      const ckpt::Snapshot& actual) {
  try {
    ckpt::Snapshot::verify(expected, actual);
  } catch (const ckpt::Error& e) {
    ADD_FAILURE() << e.what();
  }
}

/// The core oracle: run A to the first boundary at/after `at` and
/// snapshot; run B — a fresh machine from the same spec, standing in for
/// the rebuilt-from-config restore path — to the same boundary, and
/// byte-verify. Then finish both and byte-compare the final capture and
/// the stats JSON.
void expect_replay_identical(const test::RunSpec& spec, sim::Tick at) {
  test::SteppableRun a(spec);
  const ckpt::Snapshot snap = a.capture_at(at);
  EXPECT_GE(snap.tick, at);
  EXPECT_FALSE(snap.chunks().empty());

  test::SteppableRun b(spec);
  const ckpt::Snapshot replay = b.capture_at(snap.tick);
  EXPECT_EQ(replay.tick, snap.tick);
  expect_verify_ok(snap, replay);

  a.finish();
  b.finish();
  const ckpt::Snapshot final_a = ckpt::capture(a.machine, "final");
  const ckpt::Snapshot final_b = ckpt::capture(b.machine, "final");
  EXPECT_EQ(final_a.tick, final_b.tick);
  expect_verify_ok(final_a, final_b);
  EXPECT_EQ(a.stats_json(), b.stats_json());
}

test::RunSpec base_spec(test::Workload w, unsigned threads, bool fastpath) {
  test::RunSpec spec;
  spec.workload = w;
  spec.nodes = 4;
  spec.threads = threads;
  spec.fastpath = fastpath;
  spec.count = 12;
  spec.bytes = 32;
  spec.ops = 40;
  return spec;
}

TEST(CkptReplayTest, MsgSweep) {
  for (const unsigned threads : {0u, 2u}) {
    for (const bool fastpath : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " fastpath=" << fastpath);
      expect_replay_identical(
          base_spec(test::Workload::kMsg, threads, fastpath),
          10 * sim::kMicrosecond);
    }
  }
}

TEST(CkptReplayTest, ShmSweep) {
  for (const unsigned threads : {0u, 2u}) {
    for (const bool fastpath : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " fastpath=" << fastpath);
      expect_replay_identical(
          base_spec(test::Workload::kShm, threads, fastpath),
          10 * sim::kMicrosecond);
    }
  }
}

TEST(CkptReplayTest, ReliableSweep) {
  for (const unsigned threads : {0u, 2u}) {
    for (const bool fastpath : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " fastpath=" << fastpath);
      expect_replay_identical(
          base_spec(test::Workload::kReliable, threads, fastpath),
          10 * sim::kMicrosecond);
    }
  }
}

TEST(CkptReplayTest, ReliableUnderFaultsReplays) {
  // With the fault injector live, the snapshot additionally carries the
  // "fault" chunk (raw RNG words + decision cursors); the replay must
  // land on the very same words.
  test::RunSpec spec = base_spec(test::Workload::kReliable, 0, true);
  spec.net = sys::Machine::NetKind::kFatTree;
  spec.fault.seed = 7;
  spec.fault.drop_rate = 0.05;
  spec.fault.corrupt_rate = 0.05;
  expect_replay_identical(spec, 20 * sim::kMicrosecond);
}

/// Byte-compare every component chunk of two captures taken in different
/// fast-path modes. The event-domain chunks ("nK.kernel") are skipped:
/// their pending (when, seq) keys differ by design while a bus bypass is
/// in flight (one completion key instead of one key per phase, plus
/// revoked completions that wait in the queue as no-ops).
void expect_components_identical(const ckpt::Snapshot& a,
                                 const ckpt::Snapshot& b) {
  ASSERT_EQ(a.tick, b.tick);
  ASSERT_EQ(a.chunks().size(), b.chunks().size());
  for (std::size_t i = 0; i < a.chunks().size(); ++i) {
    const auto& [name, bytes] = a.chunks()[i];
    ASSERT_EQ(name, b.chunks()[i].first);
    if (!name.ends_with(".kernel")) {
      EXPECT_TRUE(bytes == b.chunks()[i].second) << "chunk " << name;
    }
  }
}

TEST(CkptReplayTest, ComponentStateIsFastpathInvariantUnderFaults) {
  // Snapshots record simulated state only, not host-side counts (events
  // executed, bypass hits), so a capture with the bypass on matches a
  // replay with it off, and the reverse, while the injector drops and
  // corrupts packets.
  for (const bool capture_fast : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "capture fastpath=" << capture_fast);
    test::RunSpec spec =
        base_spec(test::Workload::kReliable, 0, capture_fast);
    spec.net = sys::Machine::NetKind::kFatTree;
    spec.fault.seed = 7;
    spec.fault.drop_rate = 0.05;
    spec.fault.corrupt_rate = 0.05;
    test::RunSpec replay_spec = spec;
    replay_spec.fastpath = !capture_fast;

    test::SteppableRun a(spec);
    test::SteppableRun b(replay_spec);
    for (const sim::Tick at : {4 * sim::kMicrosecond, 10 * sim::kMicrosecond,
                               20 * sim::kMicrosecond}) {
      const ckpt::Snapshot snap = a.capture_at(at);
      expect_components_identical(snap, b.capture_at(snap.tick));
      EXPECT_EQ(a.machine.events_scheduled(), b.machine.events_scheduled());
    }
    a.finish();
    b.finish();
    expect_components_identical(ckpt::capture(a.machine, "final"),
                                ckpt::capture(b.machine, "final"));
    EXPECT_EQ(a.stats_json(), b.stats_json());
  }
}

TEST(CkptReplayTest, PartitionedCaptureIsThreadCountInvariant) {
  // All partitioned machines have the same domain shape (one per node),
  // so the snapshot is a function of the spec and the tick alone —
  // identical for 1, 2 and 4 workers.
  const test::RunSpec spec1 = base_spec(test::Workload::kMsg, 1, true);
  test::SteppableRun one(spec1);
  const ckpt::Snapshot ref = one.capture_at(10 * sim::kMicrosecond);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    test::SteppableRun run(base_spec(test::Workload::kMsg, threads, true));
    expect_verify_ok(ref, run.capture_at(ref.tick));
  }
}

TEST(CkptReplayTest, LargeMachineReplays256) {
  // The scaling work (O(active-domain) barrier, sharded stats, lazy node
  // state) must not perturb capture/replay: a 256-node machine restores
  // and replays byte-identically under the same oracle as the 4-node
  // sweeps, sequential and partitioned.
  for (const unsigned threads : {0u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    test::RunSpec spec = base_spec(test::Workload::kMsg, threads, true);
    spec.nodes = 256;
    spec.count = 2;
    expect_replay_identical(spec, 2 * sim::kMicrosecond);
  }
}

TEST(CkptReplayTest, TraceSpansByteIdentical) {
  // A checkpointed-then-continued run and an uninterrupted run emit the
  // same golden trace, byte for byte — capture is observation only.
  test::RunSpec spec = base_spec(test::Workload::kMsg, 0, true);
  spec.trace_capacity = 4096;

  test::SteppableRun a(spec);
  const ckpt::Snapshot snap = a.capture_at(10 * sim::kMicrosecond);
  a.finish();

  test::SteppableRun b(spec);
  const ckpt::Snapshot replay = b.capture_at(snap.tick);
  expect_verify_ok(snap, replay);
  b.finish();

  EXPECT_EQ(a.span_dump(), b.span_dump());
  EXPECT_EQ(a.stats_json(), b.stats_json());
}

// --- Application runtime: the snapshot's "app" chunk covers rank
// completion, collective generations, transport sequence state and
// mailbox contents.

void expect_app_replay_identical(const test::AppRunSpec& spec,
                                 sim::Tick at) {
  test::SteppableRun a(spec);
  const ckpt::Snapshot snap = a.capture_at(at);
  EXPECT_NE(snap.find("app"), nullptr) << "app chunk missing from capture";

  test::SteppableRun b(spec);
  const ckpt::Snapshot replay = b.capture_at(snap.tick);
  expect_verify_ok(snap, replay);

  a.finish();
  b.finish();
  EXPECT_EQ(a.run->app.errors, 0u);
  EXPECT_EQ(b.run->app.errors, 0u);
  expect_verify_ok(ckpt::capture(a.machine, "final", a.run->world.get()),
                   ckpt::capture(b.machine, "final", b.run->world.get()));
  EXPECT_EQ(a.stats_json(), b.stats_json());
}

TEST(CkptReplayTest, AppStencilMsgSweep) {
  for (const unsigned threads : {0u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    test::AppRunSpec spec;
    spec.app = test::AppKind::kStencil;
    spec.world.transport = app::TransportKind::kMsg;
    spec.threads = threads;
    expect_app_replay_identical(spec, 10 * sim::kMicrosecond);
  }
}

TEST(CkptReplayTest, AppAllreduceShmReplay) {
  test::AppRunSpec spec;
  spec.app = test::AppKind::kAllreduce;
  spec.world.transport = app::TransportKind::kShm;
  spec.allreduce.max_elems = 32;
  expect_app_replay_identical(spec, 10 * sim::kMicrosecond);
}

TEST(CkptReplayTest, AppKvReliableReplay) {
  test::AppRunSpec spec;
  spec.app = test::AppKind::kKv;
  spec.world.transport = app::TransportKind::kReliable;
  spec.kv.requests = 16;
  expect_app_replay_identical(spec, 10 * sim::kMicrosecond);
}

// --- Committed corpus: the checked-in snapshot must restore against the
// current build. This is the on-disk format's regression pin: a changed
// ckpt_save() shape or walk order fails here first.

std::string corpus_path() {
  return std::string(SV_CKPT_DIR) + "/reliable_ring.svck";
}

TEST(CkptReplayTest, CommittedCorpusRestoresByteIdentically) {
  const ckpt::Snapshot snap = ckpt::Snapshot::load_file(corpus_path());
  EXPECT_GT(snap.tick, 0u);
  EXPECT_FALSE(snap.chunks().empty());

  // run_reliable_ring with a resume snapshot replays to the capture tick
  // and byte-verifies every chunk (throwing on divergence) before it
  // continues; a fault-free continuation must end without violation.
  const ckpt::RingSpec spec = ckpt::RingSpec::from_config(snap.config);
  const ckpt::ScenarioResult res = ckpt::run_reliable_ring(spec, {}, &snap);
  EXPECT_FALSE(res.violation) << res.detail;
}

}  // namespace
}  // namespace sv
