// massf-check fixture: MUST trip `unused-allow`.
// unchecked-io never flags std::remove, so this allow excuses nothing;
// left in place it would silently cover the next real finding here.
#include <cstdio>

void drop_temp(const char* tmp) {
  // massf-check: allow(unchecked-io) — best-effort cleanup after a failure
  std::remove(tmp);
}
