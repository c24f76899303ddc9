// massf-check fixture: MUST be clean.
// Audited raw ownership carries allow(); deleted special members and the
// word "new" in comments (e.g. O(old + new)) never trip the rule.
struct Box {
  Box() = default;
  Box(const Box&) = delete;
  Box& operator=(const Box&) = delete;
  int* payload = nullptr;
};

// Rebuild costs O(old + new) — comment text, not an expression.
Box make_box() {
  Box b;
  // Single-owner protocol: released in release_box() below.
  b.payload = new int(7);  // massf-check: allow(raw-new)
  return b;
}

void release_box(Box& b) {
  delete b.payload;  // massf-check: allow(raw-new)
  b.payload = nullptr;
}
