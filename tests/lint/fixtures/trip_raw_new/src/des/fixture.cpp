// massf-check fixture: MUST trip `raw-new` (new and delete forms).
// In src/des every heap object must ride the audited RunNode pool or a
// smart pointer; a stray new/delete pair is how the kernel grows
// use-after-free bugs that only a specific interleaving exposes.
int* orphan_allocation() { return new int(7); }

void manual_free(int* p) { delete p; }

void manual_array_free(int* p) { delete[] p; }
