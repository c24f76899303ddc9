// Fixture: shapes quadratic-reserve must NOT flag — rectangular sizing,
// distinct factors, linear capacities, and an audited allow() suppression.
#include <cstddef>
#include <vector>

void linear_and_rectangular(int rows, int cols, int n, int degree) {
  std::vector<int> cells;
  cells.reserve(rows * cols);  // rectangular: different tokens

  std::vector<int> adjacency;
  adjacency.resize(static_cast<std::size_t>(n) * degree);  // n * d, not n * n

  std::vector<int> path;
  path.reserve(n);  // linear

  std::vector<char> scratch;
  scratch.assign(static_cast<std::size_t>(n), 0);  // linear with cast

  std::vector<int> audited;
  // massf-check: allow(quadratic-reserve) — tiny fixed-size test matrix
  audited.reserve(n * n);
}
