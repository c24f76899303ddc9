#include "graph/graph_io.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "util/string_util.hpp"

namespace massf::graph {

namespace {

long long as_metis_weight(double w) {
  return std::max(1LL, static_cast<long long>(std::llround(w)));
}

}  // namespace

std::string write_metis(const Graph& graph) {
  std::ostringstream os;
  os << graph.vertex_count() << ' ' << graph.edge_count() << " 011 "
     << graph.constraint_count() << '\n';
  for (VertexId v = 0; v < graph.vertex_count(); ++v) {
    bool first = true;
    for (double w : graph.vertex_weights(v)) {
      if (!first) os << ' ';
      os << as_metis_weight(w);
      first = false;
    }
    for (ArcIndex a = graph.arc_begin(v); a != graph.arc_end(v); ++a) {
      // METIS vertex ids are 1-based.
      os << ' ' << graph.arc_target(a) + 1 << ' '
         << as_metis_weight(graph.arc_weight(a));
    }
    os << '\n';
  }
  return os.str();
}

Graph read_metis(const std::string& text) {
  // Content lines first: the header's counts are checked against what the
  // file holds before anything is sized from them.
  std::vector<std::pair<int, std::string>> lines;  // (line number, text)
  {
    std::istringstream is(text);
    std::string line;
    for (int number = 1; std::getline(is, line); ++number) {
      std::string trimmed = trim(line);
      if (!trimmed.empty() && trimmed[0] != '%')
        lines.emplace_back(number, std::move(trimmed));
    }
  }
  MASSF_REQUIRE(!lines.empty(), "empty METIS file");
  const auto header = split_whitespace(lines[0].second);
  MASSF_REQUIRE(header.size() >= 2 && header.size() <= 4,
                "METIS header line " << lines[0].first << " malformed");
  const long long n = parse_int(header[0]);
  const long long m = parse_int(header[1]);
  const std::string fmt = header.size() >= 3 ? header[2] : "000";
  const long long ncon = header.size() >= 4 ? parse_int(header[3]) : 1;
  const bool has_vertex_weights = fmt.size() >= 2 && fmt[1] == '1';
  const bool has_edge_weights = fmt.size() >= 3 && fmt[2] == '1';
  MASSF_REQUIRE(fmt == "000" || fmt == "001" || fmt == "011" || fmt == "010",
                "unsupported METIS fmt '" << fmt << "'");
  const auto vertex_lines = static_cast<long long>(lines.size()) - 1;
  MASSF_REQUIRE(n >= 0 && n <= vertex_lines &&
                    n <= std::numeric_limits<VertexId>::max(),
                "METIS header declares " << n << " vertices but the file has "
                                         << vertex_lines << " vertex lines");
  // Weight components come from the vertex lines, so ncon is bounded by
  // the tokens on each line (checked as the weights are read); without
  // vertex weights there is nothing for a second constraint to carry.
  MASSF_REQUIRE(ncon >= 1 && ncon <= std::numeric_limits<int>::max() &&
                    (has_vertex_weights || ncon == 1),
                "METIS header declares " << ncon << " constraints"
                    << (has_vertex_weights ? "" : " without vertex weights"));

  // Vertices are added as their lines are read and edges once every
  // endpoint exists, so memory tracks the file's content, not its header.
  GraphBuilder builder(static_cast<int>(ncon));
  struct Edge {
    VertexId u, v;
    double weight;
  };
  std::vector<Edge> edges;
  std::vector<double> weights;
  for (VertexId v = 0; v < n; ++v) {
    const auto& [line_number, line] = lines[static_cast<std::size_t>(v) + 1];
    const auto tokens = split_whitespace(line);
    std::size_t pos = 0;
    weights.clear();
    if (has_vertex_weights) {
      MASSF_REQUIRE(static_cast<long long>(tokens.size()) >= ncon,
                    "line " << line_number << ": missing vertex weight");
      for (long long c = 0; c < ncon; ++c)
        weights.push_back(parse_double(tokens[pos++]));
    }
    builder.add_vertex(weights);
    while (pos < tokens.size()) {
      const long long id = parse_int(tokens[pos++]);
      double weight = 1.0;
      if (has_edge_weights) {
        MASSF_REQUIRE(pos < tokens.size(),
                      "line " << line_number << ": missing edge weight");
        weight = parse_double(tokens[pos++]);
      }
      MASSF_REQUIRE(id >= 1 && id <= n,
                    "line " << line_number << ": neighbor out of range");
      // Each undirected edge appears twice; add it once (from the smaller
      // endpoint) to avoid doubling weights in the builder's merge.
      const auto target = static_cast<VertexId>(id - 1);
      if (v < target) edges.push_back({v, target, weight});
    }
  }
  for (const Edge& e : edges) builder.add_edge(e.u, e.v, e.weight);
  Graph graph = builder.build();
  MASSF_REQUIRE(graph.edge_count() == m,
                "METIS header declares " << m << " edges but file has "
                                         << graph.edge_count());
  return graph;
}

std::string write_dot(const Graph& graph,
                      const std::vector<int>* assignment) {
  static const char* kPalette[] = {
      "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854", "#ffd92f",
      "#e5c494", "#b3b3b3", "#1b9e77", "#d95f02", "#7570b3", "#e7298a"};
  constexpr std::size_t kColors = sizeof(kPalette) / sizeof(kPalette[0]);

  if (assignment != nullptr) {
    MASSF_REQUIRE(assignment->size() ==
                      static_cast<std::size_t>(graph.vertex_count()),
                  "assignment must cover every vertex");
    for (int block : *assignment)
      MASSF_REQUIRE(block >= 0, "block ids must be non-negative");
  }

  std::ostringstream os;
  os << "graph massf {\n  node [style=filled];\n";
  for (VertexId v = 0; v < graph.vertex_count(); ++v) {
    os << "  n" << v;
    if (assignment != nullptr) {
      const auto block =
          static_cast<std::size_t>((*assignment)[static_cast<std::size_t>(v)]);
      os << " [fillcolor=\"" << kPalette[block % kColors] << "\" label=\"" << v
         << "/" << block << "\"]";
    }
    os << ";\n";
  }
  for (VertexId u = 0; u < graph.vertex_count(); ++u)
    for (ArcIndex a = graph.arc_begin(u); a != graph.arc_end(u); ++a) {
      const VertexId v = graph.arc_target(a);
      if (u < v) os << "  n" << u << " -- n" << v << ";\n";
    }
  os << "}\n";
  return os.str();
}

}  // namespace massf::graph
