// raw-new applies to src/des only: an allow for it anywhere else is dead.
int* make_slot() {
  return new int(0);  // massf-check: allow(raw-new)
}
