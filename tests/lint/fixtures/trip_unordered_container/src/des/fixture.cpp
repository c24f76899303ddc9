// massf-check fixture: MUST trip `unordered-container`.
// Hash-ordered iteration like the loop below is exactly the bug class the
// rule exists for: element order depends on the hasher and the growth
// history, so anything it feeds (event schedules, stat folds) goes
// nondeterministic across platforms.
#include <unordered_map>
#include <unordered_set>

int leak_iteration_order() {
  std::unordered_map<int, int> load_by_engine;
  std::unordered_set<int> seen;
  load_by_engine[1] = 2;
  seen.insert(3);
  int order_sensitive = 0;
  for (const auto& [engine, load] : load_by_engine)
    order_sensitive = order_sensitive * 31 + engine + load;
  return order_sensitive;
}
