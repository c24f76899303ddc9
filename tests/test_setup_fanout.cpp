// Setup fan-out (util::parallel_for): mapping trials and hierarchical route
// tables run on W = min(jobs, usable CPUs) workers, and their results must
// not depend on W. Each test narrows its own thread's affinity to one CPU
// (W = 1, the plain loop), restores it (W = usable CPUs) and compares the
// two results bit for bit. On a one-CPU host both sides run W = 1.
// ctest label "setup"; the des-faults-{tsan,asan} presets run it under the
// sanitizers.
#include <gtest/gtest.h>
#include <sched.h>

#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "routing/hierarchical.hpp"
#include "topology/topologies.hpp"
#include "traffic/http.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace massf {
namespace {

/// Narrows the calling thread to the first CPU of its affinity mask for
/// the guard's lifetime, so util::usable_cpus() — and with it W — is 1.
class OneCpu {
 public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
      throw std::runtime_error("sched_getaffinity failed");
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    if (sched_setaffinity(0, sizeof(one), &one) != 0)
      throw std::runtime_error("sched_setaffinity failed");
  }
  ~OneCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

/// fn() at W = 1 and at W = usable CPUs.
template <class Fn>
auto at_one_and_all_cpus(const Fn& fn) {
  auto one = [&] {
    const OneCpu pin;
    EXPECT_EQ(util::usable_cpus(), 1u);
    return fn();
  }();
  return std::make_pair(std::move(one), fn());
}

// ---------------------------------------------------------------------------
// The helper itself
// ---------------------------------------------------------------------------

TEST(ParallelFor, EveryJobRunsOnceOnAWorkerBelowTheCpuCount) {
  const std::size_t cpus = util::usable_cpus();
  std::vector<int> runs(1000, 0);
  std::vector<std::size_t> worker_of(runs.size(), 0);
  util::parallel_for(runs.size(), [&](std::size_t worker, std::size_t i) {
    ++runs[i];
    worker_of[i] = worker;
  });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], 1) << "job " << i;
    EXPECT_LT(worker_of[i], cpus) << "job " << i;
  }
  util::parallel_for(0, [](std::size_t, std::size_t) {
    ADD_FAILURE() << "a job ran for n = 0";
  });
}

TEST(ParallelFor, ThrowingJobsSurfaceTheLowestIndexError) {
  // Job 3 throws last in wall time (it sleeps first) but has the lowest
  // failing index, so its error is the one the plain loop raises — and the
  // one every worker count must raise.
  const auto run = [] {
    std::vector<char> ran(64, 0);
    try {
      util::parallel_for(ran.size(), [&](std::size_t, std::size_t i) {
        ran[i] = 1;
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("job 3");
        }
        if (i == 5 || i == 40) throw std::logic_error("job " + std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      for (std::size_t i = 0; i <= 3; ++i)
        EXPECT_TRUE(ran[i]) << "job " << i << " below the failure never ran";
      return std::string(e.what());
    } catch (const std::exception& e) {
      return "wrong error: " + std::string(e.what());
    }
    return std::string("no error");
  };
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto [one, all] = at_one_and_all_cpus(run);
    EXPECT_EQ(one, "job 3");
    EXPECT_EQ(all, "job 3");
  }
}

// ---------------------------------------------------------------------------
// Mapping trials
// ---------------------------------------------------------------------------

void expect_same_mapping(const mapping::MappingResult& a,
                         const mapping::MappingResult& b) {
  EXPECT_EQ(a.node_engine, b.node_engine);
  EXPECT_EQ(a.links_cut, b.links_cut);
  EXPECT_EQ(a.traffic_cut, b.traffic_cut);
  EXPECT_EQ(a.worst_balance, b.worst_balance);
  EXPECT_EQ(a.lookahead, b.lookahead);
  EXPECT_EQ(a.segments_used, b.segments_used);
  ASSERT_EQ(a.pair_lookaheads.size(), b.pair_lookaheads.size());
  for (std::size_t k = 0; k < a.pair_lookaheads.size(); ++k) {
    EXPECT_EQ(a.pair_lookaheads[k].a, b.pair_lookaheads[k].a);
    EXPECT_EQ(a.pair_lookaheads[k].b, b.pair_lookaheads[k].b);
    EXPECT_EQ(a.pair_lookaheads[k].lookahead, b.pair_lookaheads[k].lookahead);
  }
}

TEST(SetupFanOut, MappingsDoNotDependOnTheWorkerCount) {
  const topology::Network network = topology::make_campus();
  const routing::RoutingTables routes = routing::RoutingTables::build(network);
  traffic::HttpParams http;
  http.server_number = 6;
  http.clients_per_server = 4;
  http.think_time_s = 2;
  http.duration_s = 20;
  http.seed = 99;
  const auto workload =
      std::make_shared<traffic::HttpBackground>(network, http);

  const auto map_all = [&] {
    mapping::ExperimentSetup setup;
    setup.network = &network;
    setup.routes = &routes;
    setup.workload = workload;
    setup.engines = 3;
    setup.mapping.partition.epsilon = 0.12;
    mapping::Experiment experiment(std::move(setup));
    return std::vector<mapping::MappingResult>{
        experiment.map(mapping::Approach::Top),
        experiment.map(mapping::Approach::Place),
        experiment.map(mapping::Approach::Profile)};
  };
  const auto [one, all] = at_one_and_all_cpus(map_all);
  ASSERT_EQ(one.size(), 3u);
  for (std::size_t k = 0; k < one.size(); ++k) {
    SCOPED_TRACE(mapping::approach_name(one[k].approach));
    expect_same_mapping(one[k], all[k]);
  }
}

// ---------------------------------------------------------------------------
// Hierarchical route tables
// ---------------------------------------------------------------------------

TEST(SetupFanOut, HierarchicalTablesDoNotDependOnTheWorkerCount) {
  const topology::Network net =
      topology::make_hierarchy(topology::hierarchy_params_for_nodes(10000));
  // One intra-pod link down: a masked rebuild that shares every other
  // domain's table with the full build.
  const topology::NodeId acc = net.find_node("p0a0");
  ASSERT_GE(acc, 0);
  std::vector<char> links_up(static_cast<std::size_t>(net.link_count()), 1);
  links_up[static_cast<std::size_t>(net.incident_links(acc).front())] = 0;

  using Tables = routing::HierarchicalRoutingTables;
  const auto build = [&] {
    auto full = std::make_shared<const Tables>(Tables::build_partial(net));
    auto masked = std::make_shared<const Tables>(
        Tables::build_partial(net, nullptr, &links_up, nullptr, full.get()));
    return std::make_pair(std::move(full), std::move(masked));
  };
  const auto [one, all] = at_one_and_all_cpus(build);
  EXPECT_EQ(one.second->shared_domains(), one.second->domain_count() - 1);
  EXPECT_EQ(one.second->shared_domains(), all.second->shared_domains());

  Rng rng(2024);
  const auto n = static_cast<std::uint64_t>(net.node_count());
  for (const auto& [a, b] : {std::make_pair(one.first, all.first),
                             std::make_pair(one.second, all.second)}) {
    EXPECT_EQ(a->memory_bytes(), b->memory_bytes());
    EXPECT_EQ(a->reachability().component, b->reachability().component);
    for (int pair = 0; pair < 3000; ++pair) {
      const auto s = static_cast<topology::NodeId>(rng() % n);
      const auto t = static_cast<topology::NodeId>(rng() % n);
      ASSERT_EQ(a->distance(s, t), b->distance(s, t)) << s << " -> " << t;
      ASSERT_EQ(a->next_link(s, t), b->next_link(s, t)) << s << " -> " << t;
    }
  }
}

}  // namespace
}  // namespace massf
