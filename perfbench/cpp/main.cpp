// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <campus_profile|lb_fault|hier_cbr> --seed <n>
//             --seconds <s> --trace <0|1> [--small] [--trace-out <file>]
//
// --trace 0 repeats the whole pipeline (setup + Sequential run) for
// --seconds and reports the end-to-end metrics as medians over the passes.
// --trace 1 alternates passes with NetFlow on and off for --seconds, then
// makes one traced pass and one direct emulator pass, and reports the
// per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; every pass's outputs are
// checked and a pass with a failed check counts as a failed operation.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "emu/emulator.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace mapping = massf::mapping;

struct Args {
  Workload workload = Workload::CampusProfile;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--workload") {
      const auto w = parse_workload(value);
      if (!w) return false;
      args.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && args.seconds > 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

template <class Get>
double median_of(const std::vector<Outcome>& runs, Get get) {
  std::vector<double> values;
  for (const Outcome& run : runs) values.push_back(get(run));
  return median(values);
}

/// Named metrics with units, printed as the result's "metrics" object.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": "
          << e.value << ", \"unit\": \"" << e.unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Failed-check bookkeeping: every checked pass is one attempted
/// operation, failed (once) if any of its checks failed.
struct Tally {
  int attempted = 0;
  int failed = 0;

  void count(const std::vector<std::string>& failures,
             const std::string& label) {
    ++attempted;
    if (failures.empty()) return;
    ++failed;
    for (const std::string& f : failures)
      std::cerr << "check failed (" << label << "): " << f << "\n";
  }
};

/// What identifies a run's deterministic outputs.
struct Stamp {
  std::string fingerprint;
  std::uint64_t history_hash = 0;
};

std::string one_line(std::string text) {
  std::string out;
  for (const char c : text)
    if (c != '\n') out.push_back(c);
  return out;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Process peak RSS right after the first pass: the peak of one fresh
/// pipeline run, before later passes reuse (and fragment) the heap.
std::size_t first_pass_rss = 0;

/// Set-up-only passes (the emulator hook ends them) appended to `setups`
/// while they fit in a tenth of the full pass just made. When set-up is
/// short (lb_fault: ~3 ms) this spreads hundreds of samples over the whole
/// run, so the median does not hang on the host's speed in one instant;
/// when it is long it adds none.
void sample_setups(const Args& args, double pass_s, double last_setup_s,
                   std::vector<double>& setups) {
  RunOptions options;
  options.small = args.small;
  options.setup_only = true;
  double budget = 0.1 * pass_s;
  while (last_setup_s < budget) {
    const Clock::time_point start = Clock::now();
    last_setup_s = run_workload(args.workload, args.seed, options).setup_s;
    setups.push_back(last_setup_s);
    budget -= seconds_between(start, Clock::now());
  }
}

/// Untraced passes until `seconds` have elapsed (at least `min_runs`).
/// With `alternate`, passes alternate NetFlow on (into `on`) and off (into
/// `off`), so both sides see the same host drift. With `setups`, every full
/// pass's set-up time goes there, followed by sample_setups().
void repeat(const Args& args, bool alternate, std::vector<Outcome>& on,
            std::vector<Outcome>& off, std::vector<double>* setups = nullptr) {
  const std::size_t min_runs = 2;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    RunOptions options;
    options.small = args.small;
    options.collect_netflow = !alternate || i % 2 == 0;
    std::vector<Outcome>& side = options.collect_netflow ? on : off;
    const Clock::time_point pass_start = Clock::now();
    side.push_back(run_workload(args.workload, args.seed, options));
    if (i == 0) first_pass_rss = massf::bench::peak_rss_bytes();
    std::cerr << "pass " << i << (options.collect_netflow ? "" : " (no netflow)")
              << ": setup_s " << side.back().setup_s << " run_s "
              << side.back().run_s << "\n";
    if (setups != nullptr) {
      setups->push_back(side.back().setup_s);
      sample_setups(args, seconds_between(pass_start, Clock::now()),
                    side.back().setup_s, *setups);
    }
    const bool enough =
        on.size() >= min_runs && (!alternate || off.size() >= min_runs);
    if (enough && seconds_between(start, Clock::now()) >= args.seconds) break;
  }
}

/// Every pass of one seed must give the same deterministic outputs as the
/// first: a pass that differs gets a failed check of its own.
void check_identical(std::vector<Outcome>& runs, const std::string& expect) {
  for (Outcome& run : runs)
    if (fingerprint(run) != expect)
      run.check_failures.push_back(
          "deterministic outputs differ from the first pass of this seed");
}

void end_to_end(const Args& args, Metrics& metrics, Tally& tally,
                Stamp& stamp) {
  std::vector<Outcome> runs, unused;
  std::vector<double> setups;
  repeat(args, false, runs, unused, &setups);
  const Outcome& ref = runs.front();
  check_identical(runs, fingerprint(ref));
  for (const Outcome& run : runs) tally.count(run.check_failures, "pass");

  std::cerr << "setup samples " << setups.size() << ", median "
            << median(setups) << " s, range "
            << *std::min_element(setups.begin(), setups.end()) << "-"
            << *std::max_element(setups.begin(), setups.end()) << " s\n";
  metrics.add("setup_s", median(setups), "s");
  metrics.add("run_s", median_of(runs, [](auto& r) { return r.run_s; }), "s");
  metrics.add("load_max_over_mean", load_max_over_mean(ref.metrics), "ratio");
  metrics.add("modeled_emulation_s", ref.metrics.emulation_time, "s");
  stamp = {fingerprint(ref), ref.metrics.history_hash};
}

void per_layer(const Args& args, Metrics& metrics, Tally& tally,
               Stamp& stamp) {
  std::vector<Outcome> on, off;
  repeat(args, true, on, off);
  const Outcome& ref = on.front();
  const std::string expect = fingerprint(ref);
  check_identical(on, expect);
  // NetFlow only observes: switching it off must not change any output.
  check_identical(off, expect);
  for (const Outcome& run : on) tally.count(run.check_failures, "netflow on");
  for (const Outcome& run : off) tally.count(run.check_failures, "netflow off");

  const double run_s = median_of(on, [](auto& r) { return r.run_s; });
  const double netflow_s =
      run_s - median_of(off, [](auto& r) { return r.run_s; });

  Probes probes;
  const double end = ref.metrics.sim_time;
  for (int k = 1; k < 8; ++k) probes.slice_times.push_back(end * k / 8);
  probes.slice_times.push_back(end * (1 - 1e-9));
  RunOptions options;
  options.small = args.small;
  options.probes = &probes;
  Outcome traced = run_workload(args.workload, args.seed, options);
  std::vector<std::string>& traced_failures = traced.check_failures;
  if (traced.metrics.history_hash != ref.metrics.history_hash)
    traced_failures.push_back("traced pass changed history_hash");
  if (traced.mapping.node_engine != ref.mapping.node_engine)
    traced_failures.push_back(
        "mapping building blocks disagree with Experiment::map");
  // Span structure: children inside their parent, setup phases add up.
  const std::vector<Span>& spans = probes.spans.spans();
  for (const Span& span : spans) {
    if (span.end < span.start)
      traced_failures.push_back("span " + span.name + " ends early");
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    if (span.start < parent.start || span.end > parent.end)
      traced_failures.push_back("span " + span.name + " lies outside " +
                                parent.name);
  }
  const int setup_span = probes.spans.find("setup");
  const double phases = probes.spans.children_seconds(setup_span);
  if (std::abs(phases - traced.setup_s) > 0.05 * traced.setup_s)
    traced_failures.push_back("setup-phase spans do not add up to setup_s");

  RunOptions direct;
  direct.small = args.small;
  const massf::des::KernelStats kernel =
      run_kernel_only(args.workload, args.seed, direct, ref.mapping);
  std::vector<std::string> direct_failures;
  if (kernel.history_hash != ref.metrics.history_hash)
    direct_failures.push_back("direct emulator pass changed history_hash");
  tally.count(direct_failures, "direct");

  const mapping::RunMetrics& m = ref.metrics;
  const massf::emu::EmulatorStats& s = m.emulator_stats;
  double events = 0;
  for (const double e : m.engine_events) events += e;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double lookups = static_cast<double>(probes.lookups.calls());
  const double lookup_ns = probes.lookup_ns;
  const double lookup_s = lookups * lookup_ns * 1e-9;
  const double upcall_s = probes.upcalls.seconds;
  const double self_s = run_s - netflow_s - lookup_s - upcall_s;
  std::uint64_t fault_drops = 0, recovered = 0;
  for (const massf::emu::EpochStats& e : m.epochs) {
    fault_drops += e.trains_dropped_fault + e.trains_dropped_unreachable;
    recovered += e.reliable_recovered;
  }
  const SpanLog& log = probes.spans;

  metrics.add("topology.build_s", log.seconds("topology.build"), "s");
  metrics.add("topology.nodes", ref.nodes, "count");
  metrics.add("topology.links", ref.links, "count");
  metrics.add("routing.build_s", log.seconds("routing.build"), "s");
  metrics.add("routing.memory_mb",
              static_cast<double>(ref.routing_memory_bytes) / 1e6, "MB");
  metrics.add("routing.lookups", lookups, "count");
  metrics.add("routing.lookup_ns", lookup_ns, "ns");
  metrics.add("routing.lookup_s", lookup_s, "s");
  metrics.add("traffic.build_s", log.seconds("traffic.build"), "s");
  metrics.add("core.estimate_s", log.seconds("core.estimate"), "s");
  metrics.add("partition.init_s", log.seconds("partition.init"), "s");
  metrics.add("partition.map_s", log.seconds("partition.map"), "s");
  metrics.add("partition.links_cut", ref.mapping.links_cut, "count");
  metrics.add("partition.worst_balance", ref.mapping.worst_balance, "ratio");
  metrics.add("partition.lookahead_ms", ref.mapping.lookahead * 1e3, "ms");
  metrics.add("emu.setup_s", log.seconds("emu.setup"), "s");
  metrics.add("emu.peak_rss_mb", static_cast<double>(first_pass_rss) / 1e6,
              "MB");
  metrics.add("emu.netflow_s", netflow_s, "s");
  metrics.add("emu.netflow_records",
              static_cast<double>(probes.netflow_records), "count");
  metrics.add("emu.trains_injected", static_cast<double>(s.trains_injected),
              "count");
  metrics.add("emu.trains_in_flight",
              static_cast<double>(ref.trains_in_flight), "count");
  metrics.add("emu.delivered_frac",
              ratio(static_cast<double>(s.trains_delivered),
                    static_cast<double>(s.trains_injected)),
              "ratio");
  metrics.add("emu.hops_per_train",
              ratio(static_cast<double>(probes.lookups.next_link_calls),
                    static_cast<double>(s.trains_injected)),
              "count");
  metrics.add("emu.retransmit_frac",
              ratio(static_cast<double>(s.retransmissions),
                    static_cast<double>(s.reliable_messages_sent)),
              "ratio");
  metrics.add("emu.duplicate_deliveries",
              static_cast<double>(s.duplicate_deliveries), "count");
  metrics.add("des.events", events, "count");
  metrics.add("des.remote_frac",
              ratio(static_cast<double>(m.remote_messages), events), "ratio");
  metrics.add("des.windows", static_cast<double>(m.windows), "count");
  metrics.add("des.channel_advances", static_cast<double>(m.channel_advances),
              "count");
  metrics.add("des.handoff_runs", static_cast<double>(kernel.handoff_runs),
              "count");
  metrics.add("des.idle_jumps", static_cast<double>(m.idle_jumps), "count");
  metrics.add("des.events_per_sync",
              ratio(events, static_cast<double>(m.windows + m.channel_advances)),
              "count");
  metrics.add("des_emu.self_s", self_s, "s");
  metrics.add("des_emu.ns_per_event", ratio(self_s * 1e9, events), "ns");
  metrics.add("app.requests", static_cast<double>(ref.clients.requests_sent),
              "count");
  metrics.add("app.failed",
              static_cast<double>(ref.clients.requests_sent -
                                  ref.clients.responses_received),
              "count");
  metrics.add("app.failed_frac", ref.failed_frac, "ratio");
  metrics.add("app.upcalls", static_cast<double>(probes.upcalls.upcalls),
              "count");
  metrics.add("app.upcall_s", upcall_s, "s");
  metrics.add("fault.epochs", static_cast<double>(m.epochs.size()), "count");
  metrics.add("fault.trains_dropped", static_cast<double>(fault_drops),
              "count");
  metrics.add("fault.reliable_recovered", static_cast<double>(recovered),
              "count");
  metrics.add("trace.overhead_frac", traced.run_s / run_s - 1, "ratio");
  metrics.add("trace.run_s", run_s, "s");
  metrics.add("trace.setup_s", traced.setup_s, "s");

  stamp = {fingerprint(ref), ref.metrics.history_hash};
  std::ostringstream other;
  other << "{\"workload\": \"" << workload_name(args.workload)
        << "\", \"seed\": " << args.seed
        << ", \"history_hash\": " << ref.metrics.history_hash
        << ", \"setup_s\": " << traced.setup_s << ", \"run_s\": "
        << traced.run_s << ", \"context\": "
        << one_line(massf::bench::context_json(0, "")) << "}";
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << log.chrome_json(other.str());
    if (!out) traced_failures.push_back("could not write " + args.trace_out);
  }
  tally.count(traced_failures, "traced");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <campus_profile|lb_fault|"
                 "hier_cbr> --seed <n> --seconds <s> --trace <0|1> "
                 "[--small] [--trace-out <file>]\n";
    return 2;
  }
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to record wall time from a non-Release "
               "build\n";
  return 1;
#endif
  std::cout << "context: {\"workload\": \"" << workload_name(args.workload)
            << "\", \"seed\": " << args.seed
            << ", \"small\": " << (args.small ? "true" : "false")
            << ", \"host\": " << one_line(massf::bench::context_json(0, ""))
            << "}" << std::endl;

  Metrics metrics;
  Tally tally;
  Stamp stamp;
  try {
    if (args.trace) {
      per_layer(args, metrics, tally, stamp);
    } else {
      end_to_end(args, metrics, tally, stamp);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  std::cout << "history_hash: " << stamp.history_hash << "\n";
  std::cout << "fingerprint: " << std::hex << fnv1a(stamp.fingerprint) << std::dec
            << std::endl;
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}
