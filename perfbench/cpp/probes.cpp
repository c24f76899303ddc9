#include "probes.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/error.hpp"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int SpanLog::open(const std::string& name) {
  const int parent = current();
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, now, now, parent});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int index) {
  MASSF_CHECK(!stack_.empty() && stack_.back() == index,
              "spans must close innermost first");
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  stack_.pop_back();
}

int SpanLog::add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int parent) {
  spans_.push_back({name, start, end, parent});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::children_seconds(int parent) const {
  double total = 0;
  for (const Span& span : spans_)
    if (span.parent == parent) total += span.seconds();
  return total;
}

int SpanLog::find(const std::string& name) const {
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) return static_cast<int>(i);
  return -1;
}

double SpanLog::seconds(const std::string& name) const {
  const int index = find(name);
  return index < 0 ? 0.0 : spans_[static_cast<std::size_t>(index)].seconds();
}

namespace {

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string SpanLog::chrome_json(const std::string& other_data) const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\": \"ms\",\n\"otherData\": " << other_data
      << ",\n\"traceEvents\": [";
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string name = escape(span.name);
    const std::size_t dot = name.find('.');
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << name
        << "\", \"cat\": \"" << name.substr(0, dot) << "\", \"ph\": \"X\""
        << ", \"ts\": " << seconds_between(origin, span.start) * 1e6
        << ", \"dur\": " << span.seconds() * 1e6
        << ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": " << i
        << ", \"parent\": " << span.parent << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

void LookupLog::record(const massf::routing::RoutingView* view,
                       massf::topology::NodeId src,
                       massf::topology::NodeId dst, bool link) {
  if (calls() % stride != 0) return;
  if (sample.size() == kMaxSample) {
    // Keep every other entry: the survivors are exactly the calls a
    // doubled stride would have kept.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < sample.size(); i += 2)
      sample[kept++] = sample[i];
    sample.resize(kept);
    stride *= 2;
    if (calls() % stride != 0) return;
  }
  sample.push_back({view, src, dst, link});
}

double LookupLog::replay_ns(int reps) const {
  if (sample.empty()) return 0;
  std::vector<double> per_call;
  std::int64_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (const Lookup& lookup : sample)
      sink += lookup.link ? lookup.view->next_link(lookup.src, lookup.dst)
                          : lookup.view->next_hop(lookup.src, lookup.dst);
    per_call.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                       static_cast<double>(sample.size()));
  }
  // The sum keeps the replayed calls observable to the optimizer.
  volatile std::int64_t keep = sink;
  (void)keep;
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

}  // namespace perfbench
