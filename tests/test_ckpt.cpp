// Checkpoint/restore and crash-recovery chaos tests (DESIGN.md §12).
//
// Three layers are exercised:
//   * the container format (src/ckpt/): CRC/truncation/version rejection
//     and the atomic write-rename protocol under injected mid-write kills;
//   * Emulator::checkpoint/restore: a run killed at a randomized point and
//     restored from the latest valid snapshot finishes with a bit-identical
//     history_hash to the uninterrupted run, across both sync protocols ×
//     both execution modes, with and without a random fault plan;
//   * Experiment::run_supervised: retry-with-backoff from the latest valid
//     snapshot, fallback past corrupted snapshots, and the cooperative
//     watchdog.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "core/pipeline.hpp"
#include "emu/emulator.hpp"
#include "fault/fault.hpp"
#include "topology/topologies.hpp"
#include "traffic/cbr.hpp"
#include "util/rng.hpp"

namespace massf {
namespace {

using topology::Gbps;
using topology::Mbps;
using topology::milliseconds;
using topology::Network;
using topology::NodeId;

constexpr double kDuration = 18.0;
constexpr double kHorizon = 24.0;
constexpr double kPeriod = 5.0;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "massf_ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void flip_byte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(c ^ 0xff, f), EOF);
  ASSERT_EQ(std::fclose(f), 0);
}

/// Installs a ckpt crash hook for the enclosing scope, clears it on exit.
struct CrashGuard {
  explicit CrashGuard(ckpt::CrashHook hook) {
    ckpt::set_crash_hook(std::move(hook));
  }
  ~CrashGuard() { ckpt::set_crash_hook(nullptr); }
};

const char* name(des::SyncMode m) {
  return m == des::SyncMode::GlobalWindow ? "global" : "channel";
}
const char* name(des::ExecutionMode m) {
  return m == des::ExecutionMode::Sequential ? "seq" : "thr";
}

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

TEST(CkptFormat, WriterReaderRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + ckpt::checkpoint_filename(0);

  ckpt::Writer w;
  w.tag(0xabad1dea);
  w.u8(7);
  w.u32(0xdeadbeef);
  w.u64(~0ull);
  w.i64(-42);
  w.f64(3.25);
  w.str("supervised");
  w.commit(path);

  ckpt::Reader r = ckpt::Reader::from_file(path);
  r.expect_tag(0xabad1dea, "test section");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), ~0ull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "supervised");
  EXPECT_EQ(r.remaining(), 0u);

  // Wrong tag and reads past the end both fail loudly with the file named.
  ckpt::Reader r2 = ckpt::Reader::from_file(path);
  try {
    r2.expect_tag(0x12345678, "wrong section");
    FAIL() << "expected a tag mismatch";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(CkptFormat, RejectsCorruption) {
  const std::string dir = fresh_dir("reject");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + ckpt::checkpoint_filename(0);
  ckpt::Writer w;
  for (int i = 0; i < 16; ++i) w.u64(static_cast<std::uint64_t>(i));
  w.commit(path);
  ASSERT_NO_THROW(ckpt::Reader::from_file(path));

  // Corrupted payload byte → CRC mismatch (header is 20 bytes).
  flip_byte(path, 20 + 3);
  try {
    ckpt::Reader::from_file(path);
    FAIL() << "expected a CRC rejection";
  } catch (const ckpt::CkptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("fall back"), std::string::npos) << what;
  }
  flip_byte(path, 20 + 3);  // restore

  // Truncated payload → size rejection.
  std::filesystem::resize_file(path, 20 + 16 * 8 - 5);
  try {
    ckpt::Reader::from_file(path);
    FAIL() << "expected a truncation rejection";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }

  // A file shorter than the header.
  std::filesystem::resize_file(path, 7);
  EXPECT_THROW(ckpt::Reader::from_file(path), ckpt::CkptError);

  // Bad magic / unsupported version.
  ckpt::Writer w2;
  w2.u64(1);
  w2.commit(path);
  flip_byte(path, 0);
  try {
    ckpt::Reader::from_file(path);
    FAIL() << "expected a magic rejection";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
  flip_byte(path, 0);
  flip_byte(path, 4);
  try {
    ckpt::Reader::from_file(path);
    FAIL() << "expected a version rejection";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(CkptFormat, FilenamesSortAndParse) {
  EXPECT_EQ(ckpt::checkpoint_filename(42), "ckpt_000000000042.bin");
  std::uint64_t seq = 0;
  EXPECT_TRUE(ckpt::parse_checkpoint_seq("ckpt_000000000042.bin", seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_FALSE(ckpt::parse_checkpoint_seq("ckpt_000000000042.bin.tmp", seq));
  EXPECT_FALSE(ckpt::parse_checkpoint_seq("notes.txt", seq));

  EXPECT_TRUE(ckpt::list_checkpoints(fresh_dir("missing")).empty());

  const std::string dir = fresh_dir("listing");
  std::filesystem::create_directories(dir);
  for (const std::uint64_t s : {7u, 2u, 11u}) {
    ckpt::Writer w;
    w.u64(s);
    w.commit(dir + "/" + ckpt::checkpoint_filename(s));
  }
  const auto listed = ckpt::list_checkpoints(dir);
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].first, 2u);
  EXPECT_EQ(listed[1].first, 7u);
  EXPECT_EQ(listed[2].first, 11u);
}

TEST(CkptFormat, MidWriteCrashKeepsPreviousSnapshot) {
  const std::string dir = fresh_dir("atomic");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + ckpt::checkpoint_filename(0);

  ckpt::Writer v1;
  v1.u64(111);
  v1.commit(path);

  {
    CrashGuard guard([](const char* phase) {
      if (std::strcmp(phase, "mid-write") == 0)
        throw ckpt::InjectedCrash("kill between tmp fsync and rename");
    });
    ckpt::Writer v2;
    v2.u64(222);
    EXPECT_THROW(v2.commit(path), ckpt::InjectedCrash);
  }
  // The previous snapshot is intact and the orphaned tmp file is invisible
  // to snapshot discovery.
  ckpt::Reader r = ckpt::Reader::from_file(path);
  EXPECT_EQ(r.u64(), 111u);
  ASSERT_EQ(ckpt::list_checkpoints(dir).size(), 1u);

  // Without the kill the same commit replaces the snapshot atomically.
  ckpt::Writer v2;
  v2.u64(222);
  v2.commit(path);
  ckpt::Reader r2 = ckpt::Reader::from_file(path);
  EXPECT_EQ(r2.u64(), 222u);
}

// ---------------------------------------------------------------------------
// Small-network fixtures
// ---------------------------------------------------------------------------

/// a --- r0 --- r1 --- b across two engines.
struct TinyNet {
  Network net;
  NodeId a, r0, r1, b;
  std::unique_ptr<routing::RoutingTables> tables;

  TinyNet() {
    a = net.add_host("a", 0);
    r0 = net.add_router("r0", 0);
    r1 = net.add_router("r1", 0);
    b = net.add_host("b", 0);
    net.add_link(a, r0, Mbps(100), milliseconds(1));
    net.add_link(r0, r1, Gbps(1), milliseconds(5));
    net.add_link(r1, b, Mbps(100), milliseconds(1));
    tables = std::make_unique<routing::RoutingTables>(
        routing::RoutingTables::build(net));
  }

  emu::Emulator make(std::vector<int> engines, int count) {
    return emu::Emulator(net, *tables, std::move(engines), count);
  }
};

emu::CheckpointConfig schedule(const std::string& dir, double period,
                               int keep = 32, std::uint64_t first_seq = 0) {
  emu::CheckpointConfig cfg;
  cfg.dir = dir;
  cfg.period_s = period;
  cfg.keep = keep;
  cfg.first_seq = first_seq;
  return cfg;
}

// ---------------------------------------------------------------------------
// Safepoint edge cases
// ---------------------------------------------------------------------------

TEST(SafepointEdge, RejectsSafepointAtTimeZero) {
  TinyNet fx;
  emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
  EXPECT_THROW(emu.add_rebalance_safepoint(0.0), std::invalid_argument);
  EXPECT_THROW(emu.add_rebalance_safepoint(-1.0), std::invalid_argument);
}

TEST(SafepointEdge, FirstSnapshotDefaultsToOnePeriodIn) {
  TinyNet fx;
  emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
  for (int i = 0; i < 10; ++i)
    emu.send_message(fx.a, fx.b, 4000, i, 1.0 * i);
  // first_s = 0 means "one period in": snapshots at 5 and 10, not at t=0.
  emu.set_checkpoint_schedule(schedule(fresh_dir("first_default"), 5.0),
                              12.0);
  emu.run(12.0);
  EXPECT_EQ(emu.checkpoints_written(), 2u);
}

TEST(SafepointEdge, SafepointsAtOrPastTheHorizonNeverFire) {
  TinyNet fx;
  emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
  emu.send_message(fx.a, fx.b, 4000, 0, 0.5);
  int fired = 0;
  emu.set_rebalance_hook([&](double) { ++fired; });
  emu.add_rebalance_safepoint(10.0);    // exactly at the horizon
  emu.add_rebalance_safepoint(1000.0);  // far past it
  // The schedule generator also clips to the horizon: first_s=50 > 10
  // produces no snapshot instants at all.
  emu::CheckpointConfig cfg = schedule(fresh_dir("past_horizon"), 5.0);
  cfg.first_s = 50.0;
  emu.set_checkpoint_schedule(cfg, 10.0);
  emu.run(10.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(emu.checkpoints_written(), 0u);
}

TEST(SafepointEdge, DuplicateSafepointsCoalesceIntoOnePause) {
  TinyNet fx;
  emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
  for (int i = 0; i < 8; ++i) emu.send_message(fx.a, fx.b, 4000, i, 1.0 * i);
  // Two rebalance safepoints and one snapshot instant all at t=5: one
  // quiescent pause, one hook invocation, one snapshot.
  emu.add_rebalance_safepoint(5.0);
  emu.add_rebalance_safepoint(5.0);
  int fired = 0;
  emu.set_rebalance_hook([&](double t) {
    ++fired;
    EXPECT_DOUBLE_EQ(t, 5.0);
  });
  emu.set_checkpoint_schedule(schedule(fresh_dir("dup_sp"), 5.0), 8.0);
  emu.run(8.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(emu.checkpoints_written(), 1u);
  EXPECT_EQ(emu.kernel_stats().safepoints, 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint content errors and retention
// ---------------------------------------------------------------------------

TEST(Checkpoint, PruneKeepsOnlyTheNewestSnapshots) {
  TinyNet fx;
  const std::string dir = fresh_dir("prune");
  emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
  for (int i = 0; i < 20; ++i)
    emu.send_message(fx.a, fx.b, 4000, i, 0.4 * i);
  emu.set_checkpoint_schedule(schedule(dir, 2.0, /*keep=*/2), 10.0);
  emu.run(10.0);
  EXPECT_EQ(emu.checkpoints_written(), 4u);  // t = 2, 4, 6, 8
  const auto snaps = ckpt::list_checkpoints(dir);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].first, 2u);
  EXPECT_EQ(snaps[1].first, 3u);
}

TEST(Checkpoint, RestoreRejectsAMismatchedEmulator) {
  TinyNet fx;
  const std::string dir = fresh_dir("mismatch");
  {
    emu::Emulator emu = fx.make({0, 0, 1, 1}, 2);
    for (int i = 0; i < 10; ++i)
      emu.send_message(fx.a, fx.b, 4000, i, 0.8 * i);
    emu.set_checkpoint_schedule(schedule(dir, 5.0), 10.0);
    emu.run(10.0);
  }
  const auto snaps = ckpt::list_checkpoints(dir);
  ASSERT_FALSE(snaps.empty());

  // Wrong engine count → rejected before any state is half-applied.
  emu::Emulator wrong = fx.make({0, 0, 0, 0}, 1);
  ckpt::Reader r = ckpt::Reader::from_file(snaps.back().second);
  try {
    wrong.restore(r);
    FAIL() << "expected the engine-count mismatch to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("engine count"), std::string::npos)
        << e.what();
  }

  // The matching shape restores fine.
  emu::Emulator right = fx.make({0, 0, 1, 1}, 2);
  ckpt::Reader r2 = ckpt::Reader::from_file(snaps.back().second);
  EXPECT_DOUBLE_EQ(right.restore(r2), 5.0);
}

// ---------------------------------------------------------------------------
// Kill-and-restore chaos harness (campus scale)
// ---------------------------------------------------------------------------

/// Campus network with mixed CBR traffic: reliable + best-effort flows,
/// Poisson jitter (per-endpoint RNG state), staggered starts.
struct ChaosNet {
  Network net = topology::make_campus();
  routing::RoutingTables tables = routing::RoutingTables::build(net);
  std::shared_ptr<traffic::CompositeWorkload> workload =
      std::make_shared<traffic::CompositeWorkload>();

  ChaosNet() {
    const auto hosts = net.hosts();
    const int n = static_cast<int>(hosts.size());
    std::vector<traffic::CbrFlowSpec> reliable, plain;
    for (int i = 0; i < 16; ++i) {
      traffic::CbrFlowSpec f;
      // Disjoint sender-host pools per workload (one endpoint per source).
      const int src_index = (i % 3 == 0) ? i % 8 : 8 + i % 8;
      f.src = hosts[static_cast<std::size_t>(src_index)];
      f.dst = hosts[static_cast<std::size_t>((src_index + 7 + i) % n)];
      if (f.src == f.dst)
        f.dst = hosts[static_cast<std::size_t>((src_index + 1) % n)];
      f.message_bytes = 6000 + 500.0 * (i % 4);
      f.interval_s = 0.7 + 0.05 * (i % 3);
      f.jitter = (i % 2) != 0 ? 1.0 : 0.0;
      f.start_s = 0.1 * i;
      ((i % 3 == 0) ? reliable : plain).push_back(f);
    }
    traffic::CbrParams rp;
    rp.duration_s = kDuration;
    rp.seed = 11;
    rp.reliable = true;
    workload->add(std::make_shared<traffic::CbrTraffic>(std::move(reliable),
                                                        rp));
    traffic::CbrParams pp;
    pp.duration_s = kDuration;
    pp.seed = 12;
    workload->add(
        std::make_shared<traffic::CbrTraffic>(std::move(plain), pp));
  }

  std::unique_ptr<emu::Emulator> make(int engines, des::SyncMode sync,
                                      const fault::FaultTimeline* faults) {
    std::vector<int> placement(static_cast<std::size_t>(net.node_count()));
    for (std::size_t i = 0; i < placement.size(); ++i)
      placement[i] = static_cast<int>(i) % engines;
    emu::EmulatorConfig cfg;
    cfg.sync_mode = sync;
    auto emulator = std::make_unique<emu::Emulator>(
        net, tables, std::move(placement), engines, cfg);
    if (faults != nullptr) emulator->set_fault_timeline(faults);
    workload->install(*emulator);
    return emulator;
  }
};

struct RunOutcome {
  std::uint64_t hash = 0;
  emu::EmulatorStats stats{};
};

void expect_same_run(const RunOutcome& base, const RunOutcome& other,
                     const std::string& label) {
  EXPECT_EQ(base.hash, other.hash) << label;
  EXPECT_EQ(base.stats.trains_injected, other.stats.trains_injected) << label;
  EXPECT_EQ(base.stats.trains_delivered, other.stats.trains_delivered)
      << label;
  EXPECT_EQ(base.stats.messages_delivered, other.stats.messages_delivered)
      << label;
  EXPECT_EQ(base.stats.reliable_messages_acked,
            other.stats.reliable_messages_acked)
      << label;
  EXPECT_EQ(base.stats.retransmissions, other.stats.retransmissions) << label;
  EXPECT_DOUBLE_EQ(base.stats.bytes_delivered, other.stats.bytes_delivered)
      << label;
}

RunOutcome uninterrupted(ChaosNet& fx, int engines, des::SyncMode sync,
                         des::ExecutionMode mode,
                         const fault::FaultTimeline* faults,
                         const std::string& dir) {
  auto emulator = fx.make(engines, sync, faults);
  emulator->set_checkpoint_schedule(schedule(dir, kPeriod), kHorizon);
  emulator->run(kHorizon, mode);
  return {emulator->kernel_stats().history_hash, emulator->stats()};
}

/// Kill the run via the crash hook at the `kill_at`-th occurrence of
/// `kill_phase`, then rebuild, restore from the latest valid snapshot (or
/// start fresh if none survived), and finish the run.
RunOutcome crash_then_recover(ChaosNet& fx, int engines, des::SyncMode sync,
                              des::ExecutionMode mode,
                              const fault::FaultTimeline* faults,
                              const std::string& dir, const char* kill_phase,
                              int kill_at) {
  {
    auto victim = fx.make(engines, sync, faults);
    victim->set_checkpoint_schedule(schedule(dir, kPeriod), kHorizon);
    int calls = 0;
    CrashGuard guard([&](const char* phase) {
      if (std::strcmp(phase, kill_phase) == 0 && ++calls == kill_at)
        throw ckpt::InjectedCrash(std::string("chaos kill at ") + phase);
    });
    EXPECT_THROW(victim->run(kHorizon, mode), ckpt::InjectedCrash);
  }

  auto revived = fx.make(engines, sync, faults);
  const auto snaps = ckpt::list_checkpoints(dir);
  std::uint64_t next_seq = 0;
  if (!snaps.empty()) {
    ckpt::Reader reader = ckpt::Reader::from_file(snaps.back().second);
    EXPECT_GT(revived->restore(reader), 0.0);
    next_seq = snaps.back().first + 1;
  }
  revived->set_checkpoint_schedule(schedule(dir, kPeriod, 32, next_seq),
                                   kHorizon);
  revived->run(kHorizon, mode);
  return {revived->kernel_stats().history_hash, revived->stats()};
}

TEST(ChaosRecovery, KillAndRestoreBitIdenticalAcrossAllModes) {
  ChaosNet fx;
  for (const des::SyncMode sync :
       {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
    for (const des::ExecutionMode mode :
         {des::ExecutionMode::Sequential, des::ExecutionMode::Threaded}) {
      const std::string label =
          std::string(name(sync)) + "_" + name(mode);
      const RunOutcome base = uninterrupted(fx, 3, sync, mode, nullptr,
                                            fresh_dir("base_" + label));
      const RunOutcome recovered =
          crash_then_recover(fx, 3, sync, mode, nullptr,
                             fresh_dir("kill_" + label), "after-checkpoint",
                             /*kill_at=*/2);
      expect_same_run(base, recovered, label);
    }
  }
}

TEST(ChaosRecovery, KillAndRestoreUnderARandomFaultPlan) {
  ChaosNet fx;
  fault::RandomFaultParams params;
  params.seed = 7;
  params.horizon_s = kHorizon;
  params.link_faults = 3;
  params.router_faults = 1;
  const fault::FaultPlan plan = fault::FaultPlan::random(fx.net, params);
  const fault::FaultTimeline timeline(fx.net, plan);
  EXPECT_EQ(timeline.plan_seed(), 7u);

  for (const des::SyncMode sync :
       {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
    for (const des::ExecutionMode mode :
         {des::ExecutionMode::Sequential, des::ExecutionMode::Threaded}) {
      const std::string label =
          std::string("faulty_") + name(sync) + "_" + name(mode);
      const RunOutcome base = uninterrupted(fx, 3, sync, mode, &timeline,
                                            fresh_dir("base_" + label));
      const RunOutcome recovered =
          crash_then_recover(fx, 3, sync, mode, &timeline,
                             fresh_dir("kill_" + label), "after-checkpoint",
                             /*kill_at=*/3);
      expect_same_run(base, recovered, label);
    }
  }
}

TEST(ChaosRecovery, RandomizedKillPointsAllRecover) {
  ChaosNet fx;
  const RunOutcome base =
      uninterrupted(fx, 3, des::SyncMode::GlobalWindow,
                    des::ExecutionMode::Sequential, nullptr,
                    fresh_dir("rand_base"));
  const char* phases[] = {"before-checkpoint", "mid-write",
                          "after-checkpoint"};
  Rng rng(99);
  for (int round = 0; round < 4; ++round) {
    const char* phase = phases[rng() % 3];
    // kill_at 1 at "before-checkpoint" leaves no snapshot at all: recovery
    // degrades to a fresh start, which must still match the baseline.
    const int kill_at = 1 + static_cast<int>(rng() % 3);
    const std::string label = std::string("round") + std::to_string(round) +
                              "_" + phase + "#" + std::to_string(kill_at);
    const RunOutcome recovered = crash_then_recover(
        fx, 3, des::SyncMode::GlobalWindow, des::ExecutionMode::Sequential,
        nullptr, fresh_dir("rand_" + std::to_string(round)), phase, kill_at);
    expect_same_run(base, recovered, label);
  }
}

// ---------------------------------------------------------------------------
// Supervised runs (Experiment::run_supervised)
// ---------------------------------------------------------------------------

/// Line network wrapped in an Experiment: small enough that the watchdog
/// test's wall-clock budgets are generous.
struct TinyExperiment {
  TinyNet tiny;
  std::shared_ptr<traffic::CbrTraffic> workload;

  TinyExperiment() {
    std::vector<traffic::CbrFlowSpec> flows;
    traffic::CbrFlowSpec ab;
    ab.src = tiny.a;
    ab.dst = tiny.b;
    ab.message_bytes = 9000;
    ab.interval_s = 0.5;
    ab.jitter = 1.0;
    flows.push_back(ab);
    traffic::CbrFlowSpec ba;
    ba.src = tiny.b;
    ba.dst = tiny.a;
    ba.message_bytes = 5000;
    ba.interval_s = 0.7;
    flows.push_back(ba);
    traffic::CbrParams params;
    params.duration_s = 16;
    params.seed = 21;
    params.reliable = true;
    workload =
        std::make_shared<traffic::CbrTraffic>(std::move(flows), params);
  }

  mapping::ExperimentSetup setup() {
    mapping::ExperimentSetup s;
    s.network = &tiny.net;
    s.routes = tiny.tables.get();
    s.workload = workload;
    s.engines = 2;
    s.horizon = 20;
    return s;
  }
};

mapping::SuperviseOptions supervise_options(const std::string& dir) {
  mapping::SuperviseOptions opt;
  opt.ckpt_dir = dir;
  opt.checkpoint_period_s = 4.0;
  opt.keep = 4;
  return opt;
}

TEST(Supervised, ValidatesOptions) {
  TinyExperiment fx;
  mapping::Experiment ex(fx.setup());
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  mapping::SuperviseOptions opt;  // no ckpt_dir
  EXPECT_THROW(ex.run_supervised(mapped, opt), std::invalid_argument);
  opt.ckpt_dir = fresh_dir("sup_bad");
  opt.max_attempts = 0;
  EXPECT_THROW(ex.run_supervised(mapped, opt), std::invalid_argument);
}

TEST(Supervised, CleanRunMatchesAnUnsupervisedRun) {
  TinyExperiment fx;
  mapping::Experiment ex(fx.setup());
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  const mapping::RunMetrics plain = ex.run(mapped);
  EXPECT_NE(plain.history_hash, 0u);
  EXPECT_EQ(plain.exec_mode, des::ExecutionMode::Sequential);
  EXPECT_EQ(plain.fault_seed, 0u);  // no fault timeline attached

  const mapping::SuperviseResult res = ex.run_supervised(
      mapped, supervise_options(fresh_dir("sup_clean")));
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.restored_from, -1);
  EXPECT_EQ(res.checkpoints_written, 4u);  // t = 4, 8, 12, 16
  // Checkpointing is hash-transparent: the supervised run's history is
  // bit-identical to the plain run's.
  EXPECT_EQ(res.metrics.history_hash, plain.history_hash);
}

TEST(Supervised, RetriesFromTheLatestSnapshotAfterACrash) {
  TinyExperiment fx;
  mapping::Experiment ex(fx.setup());
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  const mapping::RunMetrics plain = ex.run(mapped);

  int after_calls = 0;
  CrashGuard guard([&](const char* phase) {
    if (std::strcmp(phase, "after-checkpoint") == 0 && ++after_calls == 2)
      throw ckpt::InjectedCrash("chaos kill after the second snapshot");
  });
  const mapping::SuperviseResult res = ex.run_supervised(
      mapped, supervise_options(fresh_dir("sup_retry")));
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.restored_from, 1);  // the t=8 snapshot (seq 1) survived
  EXPECT_EQ(res.checkpoints_written, 4u);  // 2 before the kill + 2 after
  EXPECT_EQ(res.metrics.history_hash, plain.history_hash);
}

TEST(Supervised, FallsBackPastACorruptedNewestSnapshot) {
  TinyExperiment fx;
  mapping::Experiment ex(fx.setup());
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  const mapping::RunMetrics plain = ex.run(mapped);

  const std::string dir = fresh_dir("sup_corrupt");
  const mapping::SuperviseResult first =
      ex.run_supervised(mapped, supervise_options(dir));
  ASSERT_EQ(first.attempts, 1);
  const auto snaps = ckpt::list_checkpoints(dir);
  ASSERT_EQ(snaps.size(), 4u);
  // Corrupt the newest snapshot's payload; the supervisor must reject it
  // (CRC) and restore the second-newest instead.
  flip_byte(snaps.back().second, 20 + 40);

  const mapping::SuperviseResult second =
      ex.run_supervised(mapped, supervise_options(dir));
  EXPECT_EQ(second.attempts, 1);
  EXPECT_EQ(second.restored_from,
            static_cast<std::int64_t>(snaps[snaps.size() - 2].first));
  EXPECT_EQ(second.metrics.history_hash, plain.history_hash);
}

TEST(Supervised, WatchdogRestartsAHungAttempt) {
  TinyExperiment fx;
  mapping::Experiment ex(fx.setup());
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  const mapping::RunMetrics plain = ex.run(mapped);

  bool stalled = false;
  CrashGuard guard([&](const char* phase) {
    if (!stalled && std::strcmp(phase, "before-checkpoint") == 0) {
      stalled = true;  // stall exactly once, in the first attempt
      std::this_thread::sleep_for(std::chrono::milliseconds(2000));
    }
  });
  mapping::SuperviseOptions opt = supervise_options(fresh_dir("sup_hang"));
  opt.watchdog_timeout_s = 0.5;
  opt.max_attempts = 2;
  const mapping::SuperviseResult res = ex.run_supervised(mapped, opt);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.restored_from, 0);  // the snapshot committed after the stall
  EXPECT_EQ(res.metrics.history_hash, plain.history_hash);
}

TEST(Supervised, RecoversUnderARandomFaultPlanAndRecordsItsSeed) {
  ChaosNet fx;
  fault::RandomFaultParams params;
  params.seed = 7;
  params.horizon_s = kHorizon;
  params.link_faults = 3;
  const fault::FaultPlan plan = fault::FaultPlan::random(fx.net, params);
  const fault::FaultTimeline timeline(fx.net, plan);

  mapping::ExperimentSetup setup;
  setup.network = &fx.net;
  setup.routes = &fx.tables;
  setup.workload = fx.workload;
  setup.engines = 3;
  setup.horizon = kHorizon;
  setup.faults = &timeline;
  mapping::Experiment ex(std::move(setup));
  const mapping::MappingResult mapped = ex.map(mapping::Approach::Top);
  const mapping::RunMetrics plain = ex.run(mapped);
  EXPECT_EQ(plain.fault_seed, 7u);

  int after_calls = 0;
  CrashGuard guard([&](const char* phase) {
    if (std::strcmp(phase, "after-checkpoint") == 0 && ++after_calls == 2)
      throw ckpt::InjectedCrash("chaos kill under the fault plan");
  });
  mapping::SuperviseOptions opt = supervise_options(fresh_dir("sup_faults"));
  opt.checkpoint_period_s = kPeriod;
  const mapping::SuperviseResult res = ex.run_supervised(mapped, opt);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_GE(res.restored_from, 0);
  EXPECT_EQ(res.metrics.history_hash, plain.history_hash);
  EXPECT_EQ(res.metrics.fault_seed, 7u);
}

}  // namespace
}  // namespace massf
