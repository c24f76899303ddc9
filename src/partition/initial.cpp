#include "partition/initial.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "graph/algorithms.hpp"
#include "partition/refine.hpp"

namespace massf::partition {

using graph::ArcIndex;
using graph::Graph;
using graph::VertexId;

namespace {

/// Normalized load of a vertex set fraction: max over non-degenerate
/// constraints of side_weight[c] / total[c].
double load_fraction(const std::vector<double>& side,
                     const std::vector<double>& totals) {
  double worst = 0;
  for (std::size_t c = 0; c < totals.size(); ++c)
    if (totals[c] > 0) worst = std::max(worst, side[c] / totals[c]);
  return worst;
}

/// One greedy-growing bisection trial from `seed`. Returns side flags
/// (true = left/grown side) targeting `left_fraction` of every constraint.
std::vector<char> grow_from(const Graph& graph, VertexId seed,
                            double left_fraction, Rng& rng) {
  const VertexId n = graph.vertex_count();
  const int ncon = graph.constraint_count();
  std::vector<char> in_left(static_cast<std::size_t>(n), 0);
  std::vector<double> connect(static_cast<std::size_t>(n), 0.0);
  std::vector<double> totals(static_cast<std::size_t>(ncon), 0.0);
  std::vector<double> side(static_cast<std::size_t>(ncon), 0.0);
  for (VertexId v = 0; v < n; ++v) {
    const auto vw = graph.vertex_weights(v);
    for (int c = 0; c < ncon; ++c)
      totals[static_cast<std::size_t>(c)] += vw[static_cast<std::size_t>(c)];
  }

  auto add_vertex = [&](VertexId v) {
    in_left[static_cast<std::size_t>(v)] = 1;
    const auto vw = graph.vertex_weights(v);
    for (int c = 0; c < ncon; ++c)
      side[static_cast<std::size_t>(c)] += vw[static_cast<std::size_t>(c)];
    for (ArcIndex a = graph.arc_begin(v); a != graph.arc_end(v); ++a)
      connect[static_cast<std::size_t>(graph.arc_target(a))] +=
          graph.arc_weight(a);
  };

  add_vertex(seed);
  // Grow until the left side carries at least `left_fraction` of the most
  // binding constraint — but always leave at least one vertex on the right.
  VertexId left_count = 1;
  while (left_count < n - 1 && load_fraction(side, totals) < left_fraction) {
    // Pick the unadded vertex with max connection to the region; fall back
    // to a random unadded vertex when the frontier is empty (disconnected
    // graphs).
    VertexId best = -1;
    double best_connect = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (in_left[static_cast<std::size_t>(v)]) continue;
      if (connect[static_cast<std::size_t>(v)] > best_connect) {
        best_connect = connect[static_cast<std::size_t>(v)];
        best = v;
      }
    }
    if (best < 0) {
      std::vector<VertexId> candidates;
      for (VertexId v = 0; v < n; ++v)
        if (!in_left[static_cast<std::size_t>(v)]) candidates.push_back(v);
      best = rng.pick(candidates);
    }
    add_vertex(best);
    ++left_count;
  }
  return in_left;
}

/// Score a bisection: primary = edge cut, secondary = balance violation.
double bisection_score(const Graph& graph, const std::vector<char>& in_left,
                       double left_fraction) {
  double cut = 0;
  for (VertexId u = 0; u < graph.vertex_count(); ++u)
    for (ArcIndex a = graph.arc_begin(u); a != graph.arc_end(u); ++a) {
      const VertexId v = graph.arc_target(a);
      if (u < v && in_left[static_cast<std::size_t>(u)] !=
                       in_left[static_cast<std::size_t>(v)])
        cut += graph.arc_weight(a);
    }
  // Balance penalty: how far the worst constraint strays from the target,
  // scaled by total edge weight so it competes with cut on equal footing.
  const int ncon = graph.constraint_count();
  std::vector<double> totals(static_cast<std::size_t>(ncon), 0.0);
  std::vector<double> side(static_cast<std::size_t>(ncon), 0.0);
  for (VertexId v = 0; v < graph.vertex_count(); ++v) {
    const auto vw = graph.vertex_weights(v);
    for (int c = 0; c < ncon; ++c) {
      totals[static_cast<std::size_t>(c)] += vw[static_cast<std::size_t>(c)];
      if (in_left[static_cast<std::size_t>(v)])
        side[static_cast<std::size_t>(c)] += vw[static_cast<std::size_t>(c)];
    }
  }
  double deviation = 0;
  for (int c = 0; c < ncon; ++c) {
    if (totals[static_cast<std::size_t>(c)] <= 0) continue;
    deviation = std::max(
        deviation, std::abs(side[static_cast<std::size_t>(c)] /
                                totals[static_cast<std::size_t>(c)] -
                            left_fraction));
  }
  const double scale = std::max(1.0, graph.total_edge_weight());
  return cut + deviation * scale;
}

void recurse(const Graph& graph, const std::vector<VertexId>& ids,
             int first_block, int block_count,
             const PartitionOptions& options, Rng& rng,
             Assignment& assignment) {
  MASSF_CHECK(static_cast<std::size_t>(block_count) <= ids.size(),
              "fewer vertices than blocks in recursion");
  if (block_count == 1) {
    for (VertexId v : ids) assignment[static_cast<std::size_t>(v)] = first_block;
    return;
  }

  const int left_blocks = block_count / 2;
  const int right_blocks = block_count - left_blocks;
  const double left_fraction =
      static_cast<double>(left_blocks) / static_cast<double>(block_count);

  const Graph sub = graph::induced_subgraph(graph, ids);

  std::vector<char> best;
  double best_score = std::numeric_limits<double>::infinity();
  for (int t = 0; t < kInitialTrials; ++t) {
    const auto seed =
        static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(
            sub.vertex_count())));
    std::vector<char> candidate = grow_from(sub, seed, left_fraction, rng);
    const double score = bisection_score(sub, candidate, left_fraction);
    if (score < best_score) {
      best_score = score;
      best = std::move(candidate);
    }
  }
  MASSF_CHECK(!best.empty(), "no bisection candidate produced");

  // 2-way refinement of the winning bisection.
  Assignment two_way(best.size());
  for (std::size_t i = 0; i < best.size(); ++i) two_way[i] = best[i] ? 0 : 1;
  const std::vector<double> fractions{left_fraction, 1.0 - left_fraction};
  std::vector<double> epsilons = options.epsilon_per_constraint;
  if (epsilons.empty()) epsilons.assign(1, options.epsilon);
  rebalance(sub, two_way, fractions, epsilons, rng);
  greedy_refine(sub, two_way, fractions, epsilons, kRefinePasses, rng);

  std::vector<VertexId> left_ids, right_ids;
  for (std::size_t i = 0; i < two_way.size(); ++i)
    (two_way[i] == 0 ? left_ids : right_ids).push_back(ids[i]);

  // Guarantee each side can host its block count (refinement never empties
  // a side, but tiny graphs can still end up short). Steal arbitrary
  // vertices if needed — correctness over elegance at 10-vertex scale.
  while (static_cast<int>(left_ids.size()) < left_blocks) {
    left_ids.push_back(right_ids.back());
    right_ids.pop_back();
  }
  while (static_cast<int>(right_ids.size()) < right_blocks) {
    right_ids.push_back(left_ids.back());
    left_ids.pop_back();
  }

  recurse(graph, left_ids, first_block, left_blocks, options, rng, assignment);
  recurse(graph, right_ids, first_block + left_blocks, right_blocks, options,
          rng, assignment);
}

}  // namespace

Assignment initial_partition(const Graph& graph,
                             const PartitionOptions& options, Rng& rng) {
  MASSF_REQUIRE(options.parts >= 1, "parts must be >= 1");
  MASSF_REQUIRE(graph.vertex_count() >= options.parts,
                "cannot split " << graph.vertex_count() << " vertices into "
                                << options.parts << " blocks");
  Assignment assignment(static_cast<std::size_t>(graph.vertex_count()), 0);
  std::vector<VertexId> ids(static_cast<std::size_t>(graph.vertex_count()));
  std::iota(ids.begin(), ids.end(), 0);
  recurse(graph, ids, 0, options.parts, options, rng, assignment);
  return assignment;
}

}  // namespace massf::partition
