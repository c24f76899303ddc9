// massf-check fixture: MUST be clean.
// Audited hash containers carry the inline suppression (same line or the
// line above); the #include lines need no suppression at all.
#include <unordered_map>
#include <unordered_set>

int audited_lookup_only() {
  // Key-only find/insert/erase: element order never observed.
  // massf-check: allow(unordered-container)
  std::unordered_map<int, int> pending;
  std::unordered_set<int> seen;  // massf-check: allow(unordered-container)
  pending[1] = 2;
  seen.insert(3);
  return static_cast<int>(pending.count(1) + seen.count(3));
}
