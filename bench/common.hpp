// Shared experiment configuration for the paper-reproduction benches.
//
// bench_paper reproduces the paper's tables and figures, and the ablation
// benches vary one of its choices, all with the calibration documented in
// DESIGN.md/EXPERIMENTS.md:
//   * engine cost model ~ paper-era 550 MHz PII engines running a
//     packet-level emulation stack (2 ms per 4-packet train event, 0.5 ms
//     per cross-engine message side, 1 ms window barrier);
//   * Table 1 topologies with ms-scale link latencies;
//   * HTTP background per §4.1.4 (200 KB requests, 10 clients per server,
//     server count scaled to the topology's host population);
//   * foreground applications: ScaLapack-like (10 hosts) and GridNPB-like
//     (HC+VP+MB workflow);
//   * measurements averaged over a few partition seeds (the paper's runs
//     average real-machine noise; our determinism needs explicit replicas).
//
// The gated benches (bench/run.sh) write their result files through
// Report below.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "des/kernel.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"
#include "traffic/workload.hpp"

namespace massf::bench {

/// One experimental network (Table 1 row, or the Table 2 large network).
struct TopologyCase {
  std::string name;
  topology::Network network;
  routing::RoutingTables routes;
  int engines = 0;
};

/// "Campus", "TeraGrid", "Brite" (Table 1) or "BriteLarge" (Table 2:
/// 200 routers / 364 hosts / 20 engines).
TopologyCase make_topology_case(const std::string& name);

enum class App { Scalapack, GridNpb };
const char* app_name(App app);

/// Foreground app + scaled HTTP background, with the foreground's hosts
/// excluded from the background population.
struct WorkloadBundle {
  std::shared_ptr<traffic::CompositeWorkload> workload;
  std::vector<topology::NodeId> app_hosts;
};
WorkloadBundle make_workload(const TopologyCase& topo, App app,
                             std::uint64_t seed);

/// Calibrated ExperimentSetup for a topology/workload pair. `replica`
/// varies the partitioning seed only (workload placement stays fixed).
mapping::ExperimentSetup make_setup(const TopologyCase& topo,
                                    const WorkloadBundle& bundle,
                                    int replica);

/// Number of measurement replicas (averaged). Override with the
/// MASSF_BENCH_REPLICAS environment variable.
int replica_count();

/// Peak resident set size of this process so far, in bytes (ru_maxrss,
/// normalized across the Linux-KB/macOS-bytes divergence); 0 where
/// unavailable. Monotone over the process lifetime — sample after the
/// phase being measured, and remember earlier phases set the floor.
std::size_t peak_rss_bytes();

/// JSON object describing the host/build context a bench ran under: build
/// type, usable CPUs (`util::usable_cpus`, the count the kernel sizes its
/// worker pool by), the widest worker pool the bench spawns (`max_threads`
/// capped at the usable CPUs; 0 = single-threaded), the 1/5/15-minute load
/// averages (-1 where unavailable), and the process peak RSS at the time
/// the context was stamped. `indent` prefixes every line after the first
/// so the block nests at any depth.
std::string context_json(int max_threads, const std::string& indent);

/// A JSON value that keeps object members in insertion order and lays
/// itself out: a container holding only scalars prints on one line, any
/// other nests one member per line. Default-constructed, it is an empty
/// object. Non-finite numbers print as null.
class Json {
 public:
  Json() = default;
  Json(bool value);
  Json(double value);
  Json(const char* value);
  Json(const std::string& value);
  template <typename T, typename = std::enable_if_t<
                            std::is_integral_v<T> && !std::is_same_v<T, bool>>>
  Json(T value) : kind_(Kind::Scalar), text_(std::to_string(value)) {}

  static Json array(std::initializer_list<Json> items = {});

  /// Appends a member to this object (an array ignores `key`).
  Json& add(const std::string& key, Json value);
  /// Appends an element to this array.
  Json& push(Json value) { return add("", std::move(value)); }

  /// The value as JSON text; lines after the first start with `indent`.
  std::string dump(const std::string& indent = "") const;

 private:
  enum class Kind { Scalar, Array, Object };
  Kind kind_ = Kind::Object;
  std::string text_;  // a scalar's JSON text
  std::vector<std::pair<std::string, Json>> members_;
};

/// The one result file of a gated bench: `bench`, `context`, `run_config`,
/// `results`, `gates` and `passed`, in that order. Each acceptance clause
/// is one gate; a gate that is not enforced records its outcome but does
/// not count, and a report with no enforced gate does not pass: it checked
/// nothing. Constructing a Report in a build with assertions on exits 1
/// before any work: its wall-clock numbers would be meaningless.
class Report {
 public:
  Report(std::string bench, int max_threads);

  /// The sizes and settings the run used, after any environment caps.
  Json run_config;
  /// The bench's own rows.
  Json results;

  /// Records (and prints) one acceptance clause: `value` measured against
  /// `threshold`, whether the clause held, and `reason`, the clause in
  /// words or why it is not enforced.
  void gate(const std::string& name, double value, double threshold,
            bool enforced, bool passed, const std::string& reason);

  /// Writes the file and returns the exit status: 0 if and only if at
  /// least one gate was enforced, every enforced gate passed and the file
  /// was written.
  int write(const std::string& path) const;

 private:
  std::string bench_;
  int max_threads_;
  Json gates_ = Json::array();
  bool passed_ = true;
  int enforced_ = 0;
};

}  // namespace massf::bench
