#include "partition/refine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace massf::partition {

using graph::ArcIndex;
using graph::Graph;
using graph::VertexId;

namespace {

/// Shared bookkeeping for refinement/rebalance: per-block per-constraint
/// weights, per-block vertex counts, per-constraint totals and upper limits.
class BalanceState {
 public:
  BalanceState(const Graph& graph, const Assignment& assignment,
               const std::vector<double>& fractions,
               const std::vector<double>& epsilons)
      : graph_(graph),
        parts_(static_cast<int>(fractions.size())),
        ncon_(graph.constraint_count()),
        weights_(static_cast<std::size_t>(parts_ * ncon_), 0.0),
        counts_(static_cast<std::size_t>(parts_), 0),
        limits_(static_cast<std::size_t>(parts_ * ncon_), 0.0),
        totals_(static_cast<std::size_t>(ncon_), 0.0) {
    MASSF_REQUIRE(parts_ >= 1, "need at least one block");
    for (VertexId v = 0; v < graph.vertex_count(); ++v) {
      const int p = assignment[static_cast<std::size_t>(v)];
      ++counts_[static_cast<std::size_t>(p)];
      const auto vw = graph.vertex_weights(v);
      for (int c = 0; c < ncon_; ++c) {
        at(weights_, p, c) += vw[static_cast<std::size_t>(c)];
        totals_[static_cast<std::size_t>(c)] += vw[static_cast<std::size_t>(c)];
      }
    }
    MASSF_REQUIRE(epsilons.size() == 1 ||
                      epsilons.size() == static_cast<std::size_t>(ncon_),
                  "epsilons must have 1 or ncon entries");
    for (int p = 0; p < parts_; ++p)
      for (int c = 0; c < ncon_; ++c) {
        const double eps = epsilons.size() == 1
                               ? epsilons[0]
                               : epsilons[static_cast<std::size_t>(c)];
        at(limits_, p, c) = (1.0 + eps) *
                            fractions[static_cast<std::size_t>(p)] *
                            totals_[static_cast<std::size_t>(c)];
      }
  }

  int parts() const { return parts_; }
  int constraints() const { return ncon_; }
  double weight(int p, int c) const { return at(weights_, p, c); }
  double limit(int p, int c) const { return at(limits_, p, c); }
  double total(int c) const { return totals_[static_cast<std::size_t>(c)]; }
  int count(int p) const { return counts_[static_cast<std::size_t>(p)]; }

  /// True if moving v into block b keeps every constraint of b within its
  /// limit. Constraints with zero total weight are ignored.
  bool move_fits(VertexId v, int b) const {
    const auto vw = graph_.vertex_weights(v);
    for (int c = 0; c < ncon_; ++c) {
      if (total(c) <= 0) continue;
      if (weight(b, c) + vw[static_cast<std::size_t>(c)] > limit(b, c))
        return false;
    }
    return true;
  }

  /// Amount by which block p violates its limits, summed over constraints
  /// and normalized by each constraint total (0 when feasible).
  double overload(int p) const {
    double over = 0;
    for (int c = 0; c < ncon_; ++c) {
      if (total(c) <= 0) continue;
      over += std::max(0.0, weight(p, c) - limit(p, c)) / total(c);
    }
    return over;
  }

  /// Normalized load of block p: max over constraints of W(p,c)/limit(p,c).
  double pressure(int p) const {
    double worst = 0;
    for (int c = 0; c < ncon_; ++c) {
      if (total(c) <= 0 || limit(p, c) <= 0) continue;
      worst = std::max(worst, weight(p, c) / limit(p, c));
    }
    return worst;
  }

  void apply_move(VertexId v, int from, int to) {
    const auto vw = graph_.vertex_weights(v);
    for (int c = 0; c < ncon_; ++c) {
      at(weights_, from, c) -= vw[static_cast<std::size_t>(c)];
      at(weights_, to, c) += vw[static_cast<std::size_t>(c)];
    }
    --counts_[static_cast<std::size_t>(from)];
    ++counts_[static_cast<std::size_t>(to)];
  }

 private:
  double& at(std::vector<double>& m, int p, int c) {
    return m[static_cast<std::size_t>(p) * static_cast<std::size_t>(ncon_) +
             static_cast<std::size_t>(c)];
  }
  const double& at(const std::vector<double>& m, int p, int c) const {
    return m[static_cast<std::size_t>(p) * static_cast<std::size_t>(ncon_) +
             static_cast<std::size_t>(c)];
  }

  const Graph& graph_;
  int parts_;
  int ncon_;
  std::vector<double> weights_;
  std::vector<int> counts_;
  std::vector<double> limits_;
  std::vector<double> totals_;
};

/// Connectivity of v to each block under `assignment` (sparse: only blocks
/// adjacent to v are filled; `touched` lists them).
void connectivity(const Graph& graph, const Assignment& assignment,
                  VertexId v, std::vector<double>& link,
                  std::vector<int>& touched) {
  for (int p : touched) link[static_cast<std::size_t>(p)] = 0;
  touched.clear();
  for (ArcIndex a = graph.arc_begin(v); a != graph.arc_end(v); ++a) {
    const int p = assignment[static_cast<std::size_t>(graph.arc_target(a))];
    if (link[static_cast<std::size_t>(p)] == 0) touched.push_back(p);
    link[static_cast<std::size_t>(p)] += graph.arc_weight(a);
  }
}

}  // namespace

std::vector<double> uniform_fractions(int parts) {
  MASSF_REQUIRE(parts >= 1, "parts must be >= 1");
  return std::vector<double>(static_cast<std::size_t>(parts),
                             1.0 / static_cast<double>(parts));
}

void greedy_refine(const Graph& graph, Assignment& assignment,
                   const std::vector<double>& fractions,
                   const std::vector<double>& epsilons, int passes,
                   Rng& rng) {
  const int parts = static_cast<int>(fractions.size());
  validate_assignment(graph, assignment, parts);
  if (parts == 1 || graph.vertex_count() == 0) return;

  BalanceState state(graph, assignment, fractions, epsilons);
  std::vector<double> link(static_cast<std::size_t>(parts), 0.0);
  std::vector<int> touched;
  std::vector<VertexId> order(static_cast<std::size_t>(graph.vertex_count()));
  std::iota(order.begin(), order.end(), 0);

  for (int pass = 0; pass < passes; ++pass) {
    rng.shuffle(order);
    int moves = 0;
    for (VertexId v : order) {
      const int from = assignment[static_cast<std::size_t>(v)];
      if (state.count(from) <= 1) continue;  // never empty a block
      connectivity(graph, assignment, v, link, touched);
      const double internal = link[static_cast<std::size_t>(from)];

      int best_to = -1;
      double best_gain = 0;
      for (int to : touched) {
        if (to == from) continue;
        const double gain = link[static_cast<std::size_t>(to)] - internal;
        // Strictly positive cut gain; ties broken toward the less loaded
        // block to nudge balance for free.
        const bool better =
            gain > best_gain ||
            (gain == best_gain && best_to >= 0 &&
             state.pressure(to) < state.pressure(best_to));
        if (gain > 0 && better && state.move_fits(v, to)) {
          best_gain = gain;
          best_to = to;
        }
      }
      if (best_to >= 0) {
        state.apply_move(v, from, best_to);
        assignment[static_cast<std::size_t>(v)] = best_to;
        ++moves;
      }
    }
    if (moves == 0) break;
  }
}

void rebalance(const Graph& graph, Assignment& assignment,
               const std::vector<double>& fractions,
               const std::vector<double>& epsilons, Rng& rng) {
  const int parts = static_cast<int>(fractions.size());
  validate_assignment(graph, assignment, parts);
  if (parts == 1 || graph.vertex_count() == 0) return;

  BalanceState state(graph, assignment, fractions, epsilons);
  std::vector<double> link(static_cast<std::size_t>(parts), 0.0);
  std::vector<int> touched;

  const std::int64_t move_budget =
      4 * static_cast<std::int64_t>(graph.vertex_count());
  std::int64_t moves = 0;

  while (moves < move_budget) {
    // Most overloaded block.
    int worst = -1;
    double worst_overload = 0;
    for (int p = 0; p < parts; ++p) {
      const double over = state.overload(p);
      if (over > worst_overload) {
        worst_overload = over;
        worst = p;
      }
    }
    if (worst < 0) break;  // feasible everywhere

    // Candidate vertices in the overloaded block; prefer low cut damage,
    // then heavier vertices (they fix the overload faster).
    VertexId best_vertex = -1;
    int best_target = -1;
    double best_score = std::numeric_limits<double>::infinity();
    for (VertexId v = 0; v < graph.vertex_count(); ++v) {
      if (assignment[static_cast<std::size_t>(v)] != worst) continue;
      if (state.count(worst) <= 1) break;
      connectivity(graph, assignment, v, link, touched);
      const double internal = link[static_cast<std::size_t>(worst)];
      // Try every block (not only adjacent ones: the overloaded block may
      // have no boundary to an underloaded one).
      for (int to = 0; to < parts; ++to) {
        if (to == worst) continue;
        // Moving into another overloaded block cannot help.
        if (state.overload(to) > 0) continue;
        const double damage = internal - link[static_cast<std::size_t>(to)];
        const double score =
            damage + 100.0 * state.pressure(to);  // prefer empty-ish targets
        if (score < best_score) {
          best_score = score;
          best_vertex = v;
          best_target = to;
        }
      }
    }
    if (best_vertex < 0) break;  // nothing movable

    state.apply_move(best_vertex, worst, best_target);
    assignment[static_cast<std::size_t>(best_vertex)] = best_target;
    ++moves;
    (void)rng;
  }
}

PartitionResult refine_from(const Graph& graph, Assignment assignment,
                            const PartitionOptions& options) {
  MASSF_REQUIRE(options.parts >= 1, "parts must be >= 1");
  validate_assignment(graph, assignment, options.parts);
  const std::vector<double> fractions = uniform_fractions(options.parts);
  const std::vector<double> epsilons =
      options.epsilon_per_constraint.empty()
          ? std::vector<double>{options.epsilon}
          : options.epsilon_per_constraint;
  Rng rng(mix_seed(options.seed, 0x1ec0de));

  rebalance(graph, assignment, fractions, epsilons, rng);
  greedy_refine(graph, assignment, fractions, epsilons, kRefinePasses, rng);

  PartitionResult result;
  result.edge_cut = edge_cut(graph, assignment);
  result.worst_balance = worst_balance_ratio(graph, assignment, options.parts);
  result.assignment = std::move(assignment);
  return result;
}

}  // namespace massf::partition
