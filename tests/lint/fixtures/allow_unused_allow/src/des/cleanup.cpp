// massf-check fixture: MUST be clean.
// Every allow below hides a finding of the rule it names: a discarded
// fclose on an error path and an audited raw allocation in the kernel.
#include <cstdio>

bool write_all(const char* path, const void* data, unsigned long size) {
  std::FILE* file = std::fopen(path, "wb");
  if (file == nullptr) return false;
  if (std::fwrite(data, 1, size, file) != size) {
    // massf-check: allow(unchecked-io) — the write already failed.
    std::fclose(file);
    return false;
  }
  return std::fclose(file) == 0;
}

int* make_node() {
  return new int(0);  // massf-check: allow(raw-new)
}
