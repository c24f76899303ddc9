// Checkpoint/restore and crash-recovery chaos tests (DESIGN.md §12).
//
// Four layers are exercised:
//   * the container format (src/ckpt/): CRC/truncation/version rejection
//     and the atomic write-rename protocol under injected mid-write kills;
//   * Emulator::checkpoint/restore: a run killed at a randomized point and
//     restored from the latest valid snapshot finishes with a bit-identical
//     history_hash to the uninterrupted run, across both sync protocols ×
//     both execution modes, with and without a random fault plan;
//   * Experiment::run_supervised: retry-with-backoff from the latest valid
//     snapshot, fallback past corrupted snapshots, the cooperative
//     watchdog, and an adaptive run whose rebalance controller rides the
//     snapshot's extra section;
//   * the snapshot format itself: a golden size/CRC per sync mode, hostile
//     length/node/payload fields, and a seeded mutation test of
//     Emulator::restore.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "app/scenario.hpp"
#include "ckpt/ckpt.hpp"
#include "core/pipeline.hpp"
#include "emu/emulator.hpp"
#include "emu/netflow.hpp"
#include "fault/fault.hpp"
#include "rebalance/monitor.hpp"
#include "rebalance/rebalancer.hpp"
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

/// Name of the running test, for per-test directories: ctest runs the
/// tests of this binary as concurrent processes.
std::string current_test() {
  return ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

void flip_byte(const std::string& path, long offset, int mask = 0xff) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(c ^ mask, f), EOF);
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
  // A version-1 file (ACKs keyed per message) is rejected with both
  // versions named and what to do instead.
  flip_byte(path, 4);
  flip_byte(path, 4, static_cast<int>(ckpt::kFormatVersion ^ 1u));
  try {
    ckpt::Reader::from_file(path);
    FAIL() << "expected a version-1 rejection";
  } catch (const ckpt::CkptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format version 1 is not supported"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("reads version " +
                        std::to_string(ckpt::kFormatVersion)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rerun from the start"), std::string::npos) << what;
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


// ---------------------------------------------------------------------------
// Adaptive rebalancing under supervision: the controller's state rides the
// snapshot's extra section
// ---------------------------------------------------------------------------

TEST(Supervised, AdaptiveControllerSurvivesAKillBitIdentically) {
  ChaosNet fx;
  mapping::ExperimentSetup setup;
  setup.network = &fx.net;
  setup.routes = &fx.tables;
  setup.workload = fx.workload;
  setup.engines = 2;
  setup.horizon = kHorizon;
  mapping::Experiment ex(std::move(setup));
  // Skewed start (everything on engine 0 but the last host), so the
  // controller has real imbalance to act on before and after the kill.
  mapping::MappingResult skewed = ex.map(mapping::Approach::Top);
  skewed.node_engine.assign(skewed.node_engine.size(), 0);
  skewed.node_engine[static_cast<std::size_t>(fx.net.hosts().back())] = 1;

  rebalance::RebalanceConfig rcfg;
  rcfg.start_s = 2.5;  // every second rebalance safepoint is a snapshot
  rcfg.period_s = 2.5;
  rcfg.window_s = 7.5;
  rcfg.policy.trigger = 0.05;
  rcfg.policy.hysteresis = 1;
  rcfg.policy.cooldown_s = 0.0;
  rcfg.policy.min_gain_s = -1e9;
  rebalance::Controller controller(fx.net, fx.tables, rcfg);
  ex.set_emulator_hook([&controller](emu::Emulator& emulator, double horizon) {
    controller.install(emulator, horizon);
  });

  const mapping::RunMetrics plain = ex.run(skewed);
  const std::vector<rebalance::RebalanceDecision> plain_decisions =
      controller.decisions();
  ASSERT_GE(plain.rebalances, 1u);
  ASSERT_FALSE(plain_decisions.empty());
  bool migrated_before_kill = false;
  for (const rebalance::RebalanceDecision& d : plain_decisions)
    migrated_before_kill |= d.migrated && d.t <= 2 * kPeriod;
  EXPECT_TRUE(migrated_before_kill) << "the kill must land after a migration";

  int after_calls = 0;
  CrashGuard guard([&](const char* phase) {
    if (std::strcmp(phase, "after-checkpoint") == 0 && ++after_calls == 2)
      throw ckpt::InjectedCrash("chaos kill mid adaptive run");
  });
  mapping::SuperviseOptions opt = supervise_options(fresh_dir("sup_adaptive"));
  opt.checkpoint_period_s = kPeriod;
  opt.save_extra = [&controller](ckpt::Writer& w) { controller.save_state(w); };
  opt.load_extra = [&controller](ckpt::Reader& r) { controller.load_state(r); };
  const mapping::SuperviseResult res = ex.run_supervised(skewed, opt);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.restored_from, 1);  // the t=10 snapshot

  EXPECT_EQ(res.metrics.history_hash, plain.history_hash);
  EXPECT_EQ(res.metrics.rebalances, plain.rebalances);
  EXPECT_EQ(res.metrics.nodes_migrated, plain.nodes_migrated);
  EXPECT_EQ(res.metrics.migration_bytes, plain.migration_bytes);
  EXPECT_EQ(res.metrics.events_rehomed, plain.events_rehomed);
  EXPECT_EQ(res.metrics.rebalance_epoch, plain.rebalance_epoch);
  const std::vector<rebalance::RebalanceDecision>& decisions =
      controller.decisions();
  ASSERT_EQ(decisions.size(), plain_decisions.size());
  for (std::size_t d = 0; d < decisions.size(); ++d) {
    const rebalance::RebalanceDecision& a = plain_decisions[d];
    const rebalance::RebalanceDecision& b = decisions[d];
    EXPECT_EQ(a.t, b.t) << "decision " << d;
    EXPECT_EQ(a.imbalance, b.imbalance) << "decision " << d;
    EXPECT_EQ(a.projected_before, b.projected_before) << "decision " << d;
    EXPECT_EQ(a.projected_after, b.projected_after) << "decision " << d;
    EXPECT_EQ(a.migration_bytes, b.migration_bytes) << "decision " << d;
    EXPECT_EQ(a.nodes_moved, b.nodes_moved) << "decision " << d;
    EXPECT_EQ(a.migrated, b.migrated) << "decision " << d;
  }
}

// ---------------------------------------------------------------------------
// Snapshot format oracle
// ---------------------------------------------------------------------------

constexpr double kFormatHorizon = 3.0;
constexpr double kFormatSnapshotAt = 1.5;

/// Small two-tier LB run on two engines whose snapshot at t = 1.5 fills
/// every section: endpoint words, reliable requests in flight, a latency
/// series, NetFlow, a rack-uplink outage (three fault epochs, the second
/// live at the snapshot) and an aggressive rebalance controller whose state
/// rides the extra section.
struct FormatNet {
  app::LbScenarioParams params = make_params();
  app::LbScenario scenario = app::make_lb_scenario(params);
  routing::RoutingTables tables = routing::RoutingTables::build(scenario.net);
  fault::FaultTimeline timeline{scenario.net, outage(scenario)};
  app::LbWorkload workload{scenario, params};

  static app::LbScenarioParams make_params() {
    app::LbScenarioParams p;
    p.backends = 4;
    p.client_hosts = 2;
    p.users_per_host = 20;
    p.rate_per_user = 4.0;
    p.duration_s = 2.0;
    p.policy = app::PolicyKind::PeakEwma;
    p.server.mean_s = 2e-3;
    p.server.workers = 2;
    return p;
  }

  static fault::FaultPlan outage(const app::LbScenario& s) {
    fault::FaultPlan plan;
    plan.link_outage(s.degraded_uplink, 1.0, 2.5);
    return plan;
  }

  struct Run {
    std::unique_ptr<emu::Emulator> emulator;
    std::unique_ptr<rebalance::Controller> controller;
  };

  Run make(des::SyncMode sync) {
    std::vector<int> placement(
        static_cast<std::size_t>(scenario.net.node_count()));
    for (std::size_t i = 0; i < placement.size(); ++i)
      placement[i] = static_cast<int>(i % 2);
    emu::EmulatorConfig config;
    config.reliable.base_timeout_s = params.reliable_timeout_s;
    config.sync_mode = sync;
    Run run;
    run.emulator = std::make_unique<emu::Emulator>(
        scenario.net, tables, std::move(placement), 2, config);
    run.emulator->set_fault_timeline(&timeline);
    workload.install(*run.emulator);
    rebalance::RebalanceConfig rcfg;
    rcfg.start_s = 0.5;
    rcfg.period_s = 0.5;
    rcfg.window_s = 1.0;
    rcfg.policy.trigger = 0.05;
    rcfg.policy.hysteresis = 1;
    rcfg.policy.cooldown_s = 0.0;
    rcfg.policy.min_gain_s = -1e9;
    run.controller =
        std::make_unique<rebalance::Controller>(scenario.net, tables, rcfg);
    run.controller->install(*run.emulator, kFormatHorizon);
    return run;
  }
};

/// What the snapshot instant held, so the oracle can assert that every
/// section it pins is populated.
struct SnapshotContents {
  std::uint64_t pending_reliable = 0;
  std::uint64_t latency_samples = 0;
  double netflow_packets = 0;
  std::size_t fault_epoch = 0;
  std::size_t decisions = 0;
  std::uint64_t rebalances = 0;
};

std::vector<unsigned char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Runs FormatNet to the horizon under Sequential execution with one
/// snapshot at kFormatSnapshotAt and returns that snapshot's payload (the
/// bytes after the 20-byte container header).
std::vector<unsigned char> format_snapshot(FormatNet& fx, des::SyncMode sync,
                                           SnapshotContents* contents =
                                               nullptr) {
  const std::string dir = fresh_dir(std::string("format_") + name(sync) +
                                    "_" + current_test());
  FormatNet::Run run = fx.make(sync);
  emu::Emulator& emulator = *run.emulator;
  rebalance::Controller& controller = *run.controller;
  emu::CheckpointConfig cfg = schedule(dir, /*period=*/100.0);
  cfg.first_s = kFormatSnapshotAt;
  cfg.save_extra = [&controller](ckpt::Writer& w) {
    controller.save_state(w);
  };
  cfg.on_checkpoint = [&](std::uint64_t, const std::string&) {
    if (contents == nullptr) return;
    const emu::EmulatorStats s = emulator.stats();
    contents->pending_reliable = s.reliable_messages_sent -
                                 s.reliable_messages_acked -
                                 s.reliable_messages_failed;
    contents->latency_samples =
        emulator.latency_summaries().at(0).total.count();
    contents->netflow_packets = emulator.netflow().total_node_packets();
    contents->fault_epoch = fx.timeline.epoch_at(kFormatSnapshotAt);
    contents->decisions = controller.decisions().size();
    contents->rebalances = emulator.rebalance_stats().rebalances;
  };
  emulator.set_checkpoint_schedule(cfg, kFormatHorizon);
  emulator.run(kFormatHorizon);
  const auto snaps = ckpt::list_checkpoints(dir);
  EXPECT_EQ(snaps.size(), 1u);
  if (snaps.empty()) return {};
  std::vector<unsigned char> bytes = file_bytes(snaps.front().second);
  EXPECT_GE(bytes.size(), 20u);
  if (bytes.size() < 20) return {};
  return {bytes.begin() + 20, bytes.end()};
}

TEST(SnapshotFormat, GoldenPayloadSizeAndCrcPerSyncMode) {
  // Pinned payload size and CRC-32 of one Sequential snapshot per sync mode.
  // A mismatch means the byte layout changed: that needs a kFormatVersion
  // bump and re-recorded constants, never just the latter.
  struct Golden {
    des::SyncMode sync;
    std::size_t size;
    std::uint32_t crc;
  };
  // Version 2: ACKs key on their data flow, so the NetFlow section holds
  // one ACK record per stream instead of one per message (155807 bytes at
  // version 1). The ChannelLookahead CRC also pins that protocol's step
  // schedule: the snapshot carries per-engine advance and handoff counters.
  const Golden golden[] = {
      {des::SyncMode::GlobalWindow, 39767, 0x85be0cefu},
      {des::SyncMode::ChannelLookahead, 39767, 0x0dbc95e4u},
  };
  FormatNet fx;
  for (const Golden& g : golden) {
    SCOPED_TRACE(name(g.sync));
    SnapshotContents contents;
    const std::vector<unsigned char> payload =
        format_snapshot(fx, g.sync, &contents);
    EXPECT_GT(contents.pending_reliable, 0u);
    EXPECT_GT(contents.latency_samples, 0u);
    EXPECT_GT(contents.netflow_packets, 0.0);
    EXPECT_EQ(contents.fault_epoch, 1u);
    EXPECT_GT(contents.decisions, 0u);
    EXPECT_GT(contents.rebalances, 0u);
    EXPECT_EQ(payload.size(), g.size);
    EXPECT_EQ(ckpt::crc32(payload.data(), payload.size()), g.crc)
        << std::hex << ckpt::crc32(payload.data(), payload.size());
  }
}

TEST(SnapshotFormat, RestoredRunKeepsTheUninterruptedCountersAndSnapshots) {
  // A run restored from a snapshot carries on exactly as the uninterrupted
  // run did after that safepoint: the same history, channel stats, idle
  // jumps and modeled time, and a byte-identical next snapshot.
  ChaosNet fx;
  for (const des::SyncMode sync :
       {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
    SCOPED_TRACE(name(sync));
    const std::string base_dir =
        fresh_dir(std::string("resume_base_") + name(sync));
    auto base = fx.make(3, sync, nullptr);
    base->set_checkpoint_schedule(schedule(base_dir, kPeriod), kHorizon);
    base->run(kHorizon, des::ExecutionMode::Sequential);
    const auto snaps = ckpt::list_checkpoints(base_dir);
    ASSERT_GE(snaps.size(), 2u);

    const std::string dir = fresh_dir(std::string("resume_") + name(sync));
    auto revived = fx.make(3, sync, nullptr);
    ckpt::Reader reader = ckpt::Reader::from_file(snaps[0].second);
    revived->restore(reader);
    revived->set_checkpoint_schedule(
        schedule(dir, kPeriod, 32, snaps[0].first + 1), kHorizon);
    revived->run(kHorizon, des::ExecutionMode::Sequential);

    const des::KernelStats& a = base->kernel_stats();
    const des::KernelStats& b = revived->kernel_stats();
    EXPECT_EQ(a.history_hash, b.history_hash);
    EXPECT_EQ(a.idle_jumps, b.idle_jumps);
    EXPECT_EQ(a.modeled_time, b.modeled_time);
    ASSERT_EQ(a.channels.size(), b.channels.size());
    for (std::size_t c = 0; c < a.channels.size(); ++c) {
      SCOPED_TRACE(std::to_string(a.channels[c].src) + "->" +
                   std::to_string(a.channels[c].dst));
      EXPECT_EQ(a.channels[c].delivered, b.channels[c].delivered);
      EXPECT_EQ(a.channels[c].throttled, b.channels[c].throttled);
      EXPECT_EQ(a.channels[c].max_lag, b.channels[c].max_lag);
    }
    const auto resumed = ckpt::list_checkpoints(dir);
    ASSERT_FALSE(resumed.empty());
    EXPECT_EQ(resumed.front().first, snaps[1].first);
    EXPECT_TRUE(file_bytes(resumed.front().second) ==
                file_bytes(snaps[1].second));
  }
}

// ---------------------------------------------------------------------------
// Hostile snapshot fields: each value below passes the CRC (it was written
// by Writer, or the payload is parsed directly), so only the field parser
// stands between it and the program.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kHostileLength = std::uint64_t{1} << 40;

/// Commits `w` and reads it back through the validating file path.
ckpt::Reader committed(const ckpt::Writer& w, const std::string& label) {
  const std::string dir = fresh_dir(label);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + ckpt::checkpoint_filename(0);
  w.commit(path);
  return ckpt::Reader::from_file(path);
}

/// The inflated length must be rejected as a CkptError naming `section`,
/// before anything is allocated for it.
void expect_length_rejected(const std::function<void()>& load,
                            const std::string& section) {
  try {
    load();
    ADD_FAILURE() << "expected the inflated " << section
                  << " length to be rejected";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find(section), std::string::npos)
        << e.what();
  }
}

std::uint64_t get_u64(const std::vector<unsigned char>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(b.at(at + i)) << (8 * i);
  return v;
}

void put_u64(std::vector<unsigned char>& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b.at(at + i) = static_cast<unsigned char>(v >> (8 * i));
}

/// Offset of the first occurrence of section tag `tag` in `payload`.
std::size_t find_tag(const std::vector<unsigned char>& payload,
                     std::uint32_t tag) {
  for (std::size_t at = 0; at + 4 <= payload.size(); ++at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(payload[at + i]) << (8 * i);
    if (v == tag) return at;
  }
  ADD_FAILURE() << "tag 0x" << std::hex << tag << " not found";
  return payload.size();
}

TEST(HostileSnapshot, NetFlowRowLengthIsBoundedBeforeAllocation) {
  emu::NetFlowCollector collector(3, 2);
  ckpt::Writer w;
  w.tag(0x6e666c77);  // "nflw"
  w.f64(2.0);
  w.u64(3);
  for (int i = 0; i < 3; ++i) w.f64(0.0);
  w.u64(4);  // two directions per link
  for (int i = 0; i < 4; ++i) w.f64(0.0);
  w.u64(kHostileLength);  // node 0's bucket row
  ckpt::Reader r = committed(w, "hostile_netflow");
  expect_length_rejected([&] { collector.load(r); }, "NetFlow");
}

TEST(HostileSnapshot, MonitorSampleLengthIsBoundedBeforeAllocation) {
  rebalance::LoadMonitor monitor(1.0);
  ckpt::Writer w;
  w.tag(0x6d6f6e69);  // "moni"
  w.f64(1.0);
  w.u64(1);  // one sample
  w.f64(0.5);
  w.u64(kHostileLength);  // its engine_events vector
  ckpt::Reader r = committed(w, "hostile_monitor");
  expect_length_rejected([&] { monitor.load(r); }, "load-monitor");
}

/// TinyNet on two engines with one CBR endpoint on host a, snapshotted at
/// t = 5 while packets are in flight.
struct TinySnapshot {
  TinyNet fx;
  std::shared_ptr<traffic::CbrTraffic> workload;

  TinySnapshot() {
    traffic::CbrFlowSpec ab;
    ab.src = fx.a;
    ab.dst = fx.b;
    ab.message_bytes = 9000;
    ab.interval_s = 0.3;
    traffic::CbrParams params;
    params.duration_s = 8;
    params.seed = 5;
    workload = std::make_shared<traffic::CbrTraffic>(
        std::vector<traffic::CbrFlowSpec>{ab}, params);
  }

  std::unique_ptr<emu::Emulator> make() {
    auto emulator = std::make_unique<emu::Emulator>(
        fx.net, *fx.tables, std::vector<int>{0, 0, 1, 1}, 2);
    workload->install(*emulator);
    return emulator;
  }

  /// The payload of the one snapshot, taken at `at` (< 9).
  std::vector<unsigned char> payload(double at = 5.0) {
    const std::string dir = fresh_dir("hostile_" + current_test());
    auto emulator = make();
    emulator->set_checkpoint_schedule(schedule(dir, at), 9.0);
    emulator->run(9.0);
    const auto snaps = ckpt::list_checkpoints(dir);
    EXPECT_EQ(snaps.size(), 1u);
    if (snaps.empty()) return {};
    const std::vector<unsigned char> bytes = file_bytes(snaps.front().second);
    return {bytes.begin() + 20, bytes.end()};
  }

  /// Restore `payload` (CRC not involved) into a freshly built emulator.
  void restore(std::vector<unsigned char> payload) {
    auto emulator = make();
    ckpt::Reader r(std::move(payload));
    emulator->restore(r);
  }
};

// Layout offsets of the fields patched below. Emulator section: snapshot tag
// and time, emulator tag, node/engine counts, lookahead, four node engines
// (72 bytes), then per host 15 u64 counters and one f64 (128 bytes), the
// endpoint flag and the endpoint word count.
constexpr std::size_t kHostAEndpointFlag = 72 + 128;
constexpr std::size_t kHostAWordCount = kHostAEndpointFlag + 1;
constexpr std::uint32_t kTagKernelLp = 0x6b6c7073;  // "klps"
// After the per-engine tag: 12 eight-byte counters, then the series length.
constexpr std::size_t kLpSeriesLength = 4 + 12 * 8;

TEST(HostileSnapshot, EndpointWordCountIsBoundedBeforeAllocation) {
  TinySnapshot snap;
  std::vector<unsigned char> payload = snap.payload();
  ASSERT_EQ(payload.at(kHostAEndpointFlag), 1u);
  ASSERT_LT(get_u64(payload, kHostAWordCount), 64u);
  put_u64(payload, kHostAWordCount, kHostileLength);
  expect_length_rejected([&] { snap.restore(payload); }, "emulator section");
}

TEST(HostileSnapshot, KernelSeriesLengthIsBoundedBeforeAllocation) {
  TinySnapshot snap;
  std::vector<unsigned char> payload = snap.payload();
  const std::size_t at = find_tag(payload, kTagKernelLp) + kLpSeriesLength;
  ASSERT_LT(get_u64(payload, at), 64u);
  put_u64(payload, at, kHostileLength);
  expect_length_rejected([&] { snap.restore(payload); }, "per-engine section");
}

/// Offset of engine 0's pending-event count.
std::size_t pending_count_offset(const std::vector<unsigned char>& payload) {
  const std::size_t series = find_tag(payload, kTagKernelLp) + kLpSeriesLength;
  return series + 8 + 8 * get_u64(payload, series);
}

TEST(HostileSnapshot, KernelPendingCountIsBoundedBeforeAllocation) {
  TinySnapshot snap;
  std::vector<unsigned char> payload = snap.payload();
  const std::size_t at = pending_count_offset(payload);
  ASSERT_GT(get_u64(payload, at), 0u);
  ASSERT_LT(get_u64(payload, at), 1000u);
  put_u64(payload, at, kHostileLength);
  expect_length_rejected([&] { snap.restore(payload); }, "per-engine section");
}

/// `load` must throw std::invalid_argument whose message mentions `what`.
void expect_rejected(const std::function<void()>& load,
                     const std::string& what) {
  try {
    load();
    ADD_FAILURE() << "expected a rejection mentioning '" << what << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

// Engine 0's first pending event: time, origin, sequence, then the node.
constexpr std::size_t kEventNode = 8 + 4 + 8;
constexpr std::size_t kEventPayloadFlag = kEventNode + 8;

TEST(HostileSnapshot, PendingEventNodeOutOfRangeIsRejected) {
  TinySnapshot snap;
  std::vector<unsigned char> payload = snap.payload();
  const std::size_t event = pending_count_offset(payload) + 8;
  ASSERT_LT(get_u64(payload, event + kEventNode), 4u);
  put_u64(payload, event + kEventNode, 1000);
  expect_rejected([&] { snap.restore(payload); }, "node");
}

// Packet body: src, dst, bytes, packets, ttl, then the kind byte and the
// message flag, ending 74 bytes in; a message adds 65 bytes, src and dst
// first.
constexpr std::size_t kPacketDst = 8;
constexpr std::size_t kPacketKind = 40;
constexpr std::size_t kPacketHasMessage = 41;
constexpr std::size_t kPacketBody = 74;
constexpr std::size_t kMessageBody = 65;

TEST(HostileSnapshot, NullPendingPayloadIsRejected) {
  TinySnapshot snap;
  std::vector<unsigned char> payload = snap.payload();
  const std::size_t flag =
      pending_count_offset(payload) + 8 + kEventPayloadFlag;
  ASSERT_EQ(payload.at(flag), 1u);
  // A well-formed null payload: the flag reads 0 and no packet body
  // follows.
  const bool has_message = payload.at(flag + 1 + kPacketHasMessage) != 0;
  const std::size_t body = kPacketBody + (has_message ? kMessageBody : 0);
  payload[flag] = 0;
  payload.erase(payload.begin() + static_cast<std::ptrdiff_t>(flag + 1),
                payload.begin() + static_cast<std::ptrdiff_t>(flag + 1 + body));
  expect_rejected([&] { snap.restore(payload); }, "payload");
}

/// A NetFlow section for one node and no links whose flow list holds one
/// record per id in `flows`, in that order.
ckpt::Reader netflow_listing(const std::vector<std::uint64_t>& flows,
                             const std::string& label) {
  ckpt::Writer w;
  w.tag(0x6e666c77);  // "nflw"
  w.f64(2.0);
  w.u64(1);  // one node
  w.f64(static_cast<double>(flows.size()));
  w.u64(0);  // no links
  w.u64(0);  // node 0's empty bucket row
  w.u64(flows.size());
  for (const std::uint64_t flow : flows) {
    w.u64(flow);
    w.f64(1.0);     // packets
    w.f64(1500.0);  // bytes
    w.f64(0.5);     // first seen
    w.f64(0.5);     // last seen
  }
  return committed(w, label);
}

TEST(HostileSnapshot, NetFlowDuplicateFlowIdIsRejected) {
  emu::NetFlowCollector collector(1, 0);
  ckpt::Reader valid = netflow_listing({5, 9}, "netflow_valid");
  collector.load(valid);
  EXPECT_EQ(collector.node_flows(0).size(), 2u);
  ckpt::Reader r = netflow_listing({5, 5}, "netflow_duplicate");
  expect_rejected([&] { collector.load(r); }, "NetFlow section");
}

TEST(HostileSnapshot, NetFlowUnsortedFlowIdsAreRejected) {
  emu::NetFlowCollector collector(1, 0);
  ckpt::Reader r = netflow_listing({7, 3}, "netflow_unsorted");
  expect_rejected([&] { collector.load(r); }, "NetFlow section");
}

double get_f64(const std::vector<unsigned char>& b, std::size_t at) {
  const std::uint64_t bits = get_u64(b, at);
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void put_f64(std::vector<unsigned char>& b, std::size_t at, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof v);
  put_u64(b, at, bits);
}

/// Where one pending event sits in a snapshot payload.
struct PendingAt {
  std::size_t event;  // its time field
  std::size_t body;   // its packet's src field
  emu::PacketKind kind;
  bool has_message;
};

/// Every pending event of the first `engines` engines, in payload order.
std::vector<PendingAt> pending_events(const std::vector<unsigned char>& payload,
                                      int engines) {
  std::vector<PendingAt> out;
  std::size_t lp = find_tag(payload, kTagKernelLp);
  for (int e = 0; e < engines; ++e) {
    const std::size_t series = lp + kLpSeriesLength;
    std::size_t at = series + 8 + 8 * get_u64(payload, series);
    const std::uint64_t count = get_u64(payload, at);
    at += 8;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::size_t body = at + kEventPayloadFlag + 1;
      const PendingAt p{
          at, body,
          static_cast<emu::PacketKind>(payload.at(body + kPacketKind)),
          payload.at(body + kPacketHasMessage) != 0};
      out.push_back(p);
      at = p.body + kPacketBody + (p.has_message ? kMessageBody : 0);
    }
    lp = at;
  }
  return out;
}

/// A TinySnapshot taken while one message crosses r0→r1: engine 0 holds
/// the next CBR timer, engine 1 the message's two trains, the second one
/// carrying the message.
struct MidFlight {
  static constexpr double kAt = 5.19;
  TinySnapshot snap;
  std::vector<unsigned char> payload = snap.payload(kAt);
  std::vector<PendingAt> events = pending_events(payload, 2);

  bool as_described() const {
    return events.size() == 3 && events[0].kind == emu::PacketKind::CtrlTimer &&
           events[1].kind == emu::PacketKind::Data && !events[1].has_message &&
           events[2].kind == emu::PacketKind::Data && events[2].has_message &&
           get_f64(payload, events[0].event) > kAt;
  }

  /// The unpatched payload restores; the patched one is rejected with a
  /// message mentioning `what`.
  void expect_patch_rejected(
      const std::function<void(std::vector<unsigned char>&)>& patch,
      const std::string& what) {
    ASSERT_TRUE(as_described());
    EXPECT_NO_THROW(snap.restore(payload));
    std::vector<unsigned char> patched = payload;
    patch(patched);
    expect_rejected([&] { snap.restore(patched); }, what);
  }
};

TEST(HostileSnapshot, NaNPendingEventTimeIsRejected) {
  MidFlight m;
  m.expect_patch_rejected(
      [&](auto& p) {
        put_f64(p, m.events[0].event, std::numeric_limits<double>::quiet_NaN());
      },
      "pending event time");
}

TEST(HostileSnapshot, NegativePendingEventTimeIsRejected) {
  MidFlight m;
  m.expect_patch_rejected([&](auto& p) { put_f64(p, m.events[0].event, -1.0); },
                          "pending event time");
}

TEST(HostileSnapshot, PendingEventBeforeSafepointIsRejected) {
  MidFlight m;
  m.expect_patch_rejected(
      [&](auto& p) { put_f64(p, m.events[0].event, MidFlight::kAt - 0.5); },
      "pending event time");
}

TEST(HostileSnapshot, PendingEventsOutOfOrderAreRejected) {
  // Engine 1's first train moves past its second.
  MidFlight m;
  m.expect_patch_rejected(
      [&](auto& p) { put_f64(p, m.events[1].event, MidFlight::kAt + 1.0); },
      "ascending (time, origin, seq) order");
}

TEST(HostileSnapshot, PacketSourceOutOfRangeIsRejected) {
  MidFlight m;
  m.expect_patch_rejected([&](auto& p) { put_u64(p, m.events[1].body, 1000); },
                          "packet hosts");
}

TEST(HostileSnapshot, PacketDestinationOutOfRangeIsRejected) {
  MidFlight m;
  m.expect_patch_rejected(
      [&](auto& p) { put_u64(p, m.events[1].body + kPacketDst, 1000); },
      "packet hosts");
}

TEST(HostileSnapshot, ControlEventHostOutOfRangeIsRejected) {
  // handle_control indexes host state with the timer's dst.
  MidFlight m;
  m.expect_patch_rejected(
      [&](auto& p) { put_u64(p, m.events[0].body + kPacketDst, 1000); },
      "packet hosts");
}

TEST(HostileSnapshot, MessageSourceOutOfRangeIsRejected) {
  MidFlight m;
  m.expect_patch_rejected(
      [&](auto& p) { put_u64(p, m.events[2].body + kPacketBody, 1000); },
      "message hosts");
}

TEST(HostileSnapshot, MessageDestinationOutOfRangeIsRejected) {
  MidFlight m;
  m.expect_patch_rejected(
      [&](auto& p) {
        put_u64(p, m.events[2].body + kPacketBody + kPacketDst,
                static_cast<std::uint64_t>(-7));
      },
      "message hosts");
}

/// Restores `payload` into a fresh FormatNet run, the controller's state
/// from the extra section.
void restore_format(FormatNet& fx, std::vector<unsigned char> payload,
                    FormatNet::Run& run) {
  run = fx.make(des::SyncMode::GlobalWindow);
  rebalance::Controller& controller = *run.controller;
  ckpt::Reader r(std::move(payload));
  run.emulator->restore(
      r, [&controller](ckpt::Reader& rr) { controller.load_state(rr); });
}

/// Where one pending reliable record sits in a snapshot payload.
struct ReliableAt {
  NodeId sender;
  std::size_t at;  // its message id field
};

/// Every pending reliable record in a FormatNet payload, walking the
/// emulator section: the 40-byte header, one engine per node, then per
/// host 128 bytes of counters, the endpoint flag and words, the pending
/// records (id, dst, bytes, tag, first_sent, attempts, corr) and the
/// dedupe ids.
std::vector<ReliableAt> pending_reliable_records(
    const std::vector<unsigned char>& payload, int nodes) {
  std::vector<ReliableAt> out;
  std::size_t at = 40 + 8 * static_cast<std::size_t>(nodes);
  for (NodeId h = 0; h < nodes; ++h) {
    at += 128;
    if (payload.at(at++) != 0) at += 8 + 8 * get_u64(payload, at);
    const std::uint64_t count = get_u64(payload, at);
    at += 8;
    for (std::uint64_t i = 0; i < count; ++i, at += 56) out.push_back({h, at});
    at += 8 + 8 * get_u64(payload, at);
  }
  return out;
}

// Field offsets inside one pending reliable record.
constexpr std::size_t kReliableDst = 8;
constexpr std::size_t kReliableBytes = 16;
constexpr std::size_t kReliableFirstSent = 32;
constexpr std::size_t kReliableAttempts = 40;

/// The FormatNet snapshot restores as written; each patch of its first
/// pending reliable record is rejected as a CkptError naming `field`.
void expect_pending_reliable_rejected(
    const std::vector<std::function<void(std::vector<unsigned char>&,
                                         const ReliableAt&)>>& patches,
    const std::string& field) {
  FormatNet fx;
  const std::vector<unsigned char> valid =
      format_snapshot(fx, des::SyncMode::GlobalWindow);
  const std::vector<ReliableAt> records =
      pending_reliable_records(valid, fx.scenario.net.node_count());
  ASSERT_FALSE(records.empty());
  const ReliableAt record = records.front();
  ASSERT_EQ(get_u64(valid, record.at + kReliableAttempts), 1u);
  FormatNet::Run run;
  EXPECT_NO_THROW(restore_format(fx, valid, run));
  for (std::size_t i = 0; i < patches.size(); ++i) {
    SCOPED_TRACE("patch " + std::to_string(i));
    std::vector<unsigned char> patched = valid;
    patches[i](patched, record);
    try {
      restore_format(fx, patched, run);
      ADD_FAILURE() << "expected the pending reliable " << field
                    << " to be rejected";
    } catch (const ckpt::CkptError& e) {
      EXPECT_NE(std::string(e.what()).find("bad " + field), std::string::npos)
          << e.what();
    }
  }
}

TEST(HostileSnapshot, PendingReliableDestinationIsRejected) {
  // Retransmission routes to dst: it must be a node, and not the sender.
  expect_pending_reliable_rejected(
      {[](auto& p, auto& r) { put_u64(p, r.at + kReliableDst, 1000); },
       [](auto& p, auto& r) {
         put_u64(p, r.at + kReliableDst, static_cast<std::uint64_t>(-1));
       },
       [](auto& p, auto& r) {
         put_u64(p, r.at + kReliableDst, static_cast<std::uint64_t>(r.sender));
       }},
      "dst");
}

TEST(HostileSnapshot, PendingReliableBytesAreFiniteAndPositive) {
  // Retransmission packetizes `bytes`: NaN reached an int conversion.
  expect_pending_reliable_rejected(
      {[](auto& p, auto& r) {
         put_f64(p, r.at + kReliableBytes,
                 std::numeric_limits<double>::quiet_NaN());
       },
       [](auto& p, auto& r) {
         put_f64(p, r.at + kReliableBytes,
                 std::numeric_limits<double>::infinity());
       },
       [](auto& p, auto& r) { put_f64(p, r.at + kReliableBytes, 0.0); },
       [](auto& p, auto& r) { put_f64(p, r.at + kReliableBytes, -1.0); }},
      "bytes");
}

TEST(HostileSnapshot, PendingReliableAttemptsStayWithinTheRetryBudget) {
  // A negative count re-armed timeouts at now + 0 about 2³¹ times.
  expect_pending_reliable_rejected(
      {[](auto& p, auto& r) {
         put_u64(p, r.at + kReliableAttempts, static_cast<std::uint64_t>(-5));
       },
       [](auto& p, auto& r) { put_u64(p, r.at + kReliableAttempts, 0); },
       [](auto& p, auto& r) {
         put_u64(p, r.at + kReliableAttempts,
                 2 + emu::ReliablePolicy{}.max_retries);
       }},
      "attempts");
}

TEST(HostileSnapshot, PendingReliableFirstSentIsAPossibleSendTime) {
  // Event times are finite and >= 0, and only a send already made can
  // have been resent. A setup-time send due after the snapshot is pending
  // with a later first_sent; that is not rejected.
  expect_pending_reliable_rejected(
      {[](auto& p, auto& r) {
         put_f64(p, r.at + kReliableFirstSent,
                 std::numeric_limits<double>::quiet_NaN());
       },
       [](auto& p, auto& r) {
         put_f64(p, r.at + kReliableFirstSent,
                 std::numeric_limits<double>::infinity());
       },
       [](auto& p, auto& r) {
         put_f64(p, r.at + kReliableFirstSent, -1.0);
       },
       [](auto& p, auto& r) {
         put_u64(p, r.at + kReliableAttempts, 2);
         put_f64(p, r.at + kReliableFirstSent, kFormatSnapshotAt + 0.5);
       }},
      "first_sent");
  FormatNet fx;
  std::vector<unsigned char> due_later =
      format_snapshot(fx, des::SyncMode::GlobalWindow);
  const std::vector<ReliableAt> records =
      pending_reliable_records(due_later, fx.scenario.net.node_count());
  ASSERT_FALSE(records.empty());
  put_f64(due_later, records.front().at + kReliableFirstSent,
          kFormatSnapshotAt + 0.5);
  FormatNet::Run run;
  EXPECT_NO_THROW(restore_format(fx, due_later, run));
}

// ---------------------------------------------------------------------------
// Seeded mutation test of Emulator::restore
// ---------------------------------------------------------------------------

/// Calls `visit(m, payload, what)` for each of 900 seeded mutations of the
/// GlobalWindow FormatNet snapshot: byte flips, truncations and inflated
/// length fields in turn; `what` describes the mutation.
void for_each_snapshot_mutation(
    FormatNet& fx,
    const std::function<void(int, std::vector<unsigned char>,
                             const std::string&)>& visit) {
  const std::vector<unsigned char> valid =
      format_snapshot(fx, des::SyncMode::GlobalWindow);
  ASSERT_FALSE(valid.empty());

  // Offsets holding a small u64: the count and length fields (and some
  // other small values), the targets of the inflated-length mutations.
  std::vector<std::size_t> small;
  for (std::size_t at = 0; at + 8 <= valid.size(); ++at)
    if (get_u64(valid, at) < 4096) small.push_back(at);
  ASSERT_FALSE(small.empty());
  const std::uint64_t inflated[] = {std::uint64_t{1} << 31, kHostileLength,
                                    std::uint64_t{1} << 62, ~std::uint64_t{0}};

  constexpr int kMutations = 900;
  Rng rng(20261017);
  for (int m = 0; m < kMutations; ++m) {
    std::vector<unsigned char> payload = valid;
    std::string what;
    switch (m % 3) {
      case 0: {  // byte flips
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < flips; ++f) {
          const std::size_t at = rng() % payload.size();
          payload[at] ^= static_cast<unsigned char>(1 + rng() % 255);
          what += " flip@" + std::to_string(at);
        }
        break;
      }
      case 1: {  // truncation
        const std::size_t keep = rng() % payload.size();
        payload.resize(keep);
        what = " truncate@" + std::to_string(keep);
        break;
      }
      default: {  // inflated length field
        const std::size_t at = small[rng() % small.size()];
        const std::uint64_t v = inflated[rng() % 4];
        put_u64(payload, at, v);
        what = " u64@" + std::to_string(at) + "=" + std::to_string(v);
        break;
      }
    }
    visit(m, std::move(payload), what);
  }
}

/// Restores one mutation; returns whether restore accepted it. Only a
/// CkptError or std::invalid_argument may reject it.
bool restore_mutation(FormatNet& fx, FormatNet::Run& run,
                      std::vector<unsigned char> payload, int m,
                      const std::string& what) {
  try {
    restore_format(fx, std::move(payload), run);
    return true;
  } catch (const ckpt::CkptError&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutation " << m << what << " escaped as "
                  << typeid(e).name() << ": " << e.what();
  }
  return false;
}

TEST(SnapshotMutation, OnlyCheckpointOrArgumentErrorsEscapeRestore) {
  FormatNet fx;
  int rejected = 0;
  int accepted = 0;
  for_each_snapshot_mutation(
      fx, [&](int m, std::vector<unsigned char> payload,
              const std::string& what) {
        FormatNet::Run run;
        if (restore_mutation(fx, run, std::move(payload), m, what))
          ++accepted;
        else
          ++rejected;
      });
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);  // flips inside doubles restore fine
}

TEST(SnapshotMutation, AcceptedSnapshotsRunToTheHorizon) {
  // Whatever restore accepts, the resumed run either reaches the horizon
  // or stops with a std::exception — never a hang, a crash or UB (the
  // ckpt-asan/ckpt-ubsan presets run this under the sanitizers), and never
  // an InternalError: counters no run can produce are restore's to reject.
  FormatNet fx;
  int finished = 0;
  for_each_snapshot_mutation(
      fx, [&](int m, std::vector<unsigned char> payload,
              const std::string& what) {
        FormatNet::Run run;
        if (!restore_mutation(fx, run, std::move(payload), m, what)) return;
        try {
          run.emulator->run(kFormatHorizon);
          ++finished;
        } catch (const InternalError& e) {
          ADD_FAILURE() << "mutation " << m << what
                        << " passed restore but broke an invariant: "
                        << e.what();
        } catch (const std::exception&) {
        }
      });
  EXPECT_GT(finished, 0);
}

}  // namespace
}  // namespace massf
