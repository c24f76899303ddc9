// Fixed-width plain-text table rendering.
//
// Every bench binary reproduces a paper table or figure by printing an
// aligned text table (rows = the paper's series). This tiny formatter keeps
// that output consistent and diff-friendly across benches.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace massf {

/// A simple column-aligned table. Cells are strings; numeric helpers format
/// with a fixed precision so bench output is stable.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Begin a new row; subsequent cell() calls fill it left to right.
  Table& row();
  Table& cell(const std::string& text);
  Table& cell(const char* text);
  Table& cell(double value, int precision = 3);
  Table& cell(std::size_t value);
  Table& cell(long long value);
  Table& cell(int value);

  /// Render with a header rule and 2-space column gaps.
  std::string to_string() const;
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (used for table cells and logs).
std::string format_double(double value, int precision = 3);

/// Render "x.x%" percentage change from `from` to `to`; negative = reduction.
std::string format_percent_change(double from, double to);

}  // namespace massf
