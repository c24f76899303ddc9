// massf-check fixture: MUST be clean.
// Sanctioned shapes: results consumed by a check or assignment, and an
// audited best-effort cleanup path that discards fclose explicitly with a
// (void) cast (which the rule never flags, so it needs no allow()).
#include <cstdio>

bool checked_checkpoint(const char* path, const void* data,
                        unsigned long size) {
  std::FILE* file = std::fopen(path, "wb");
  if (file == nullptr) return false;
  const unsigned long written = std::fwrite(data, 1, size, file);
  if (written != size) {
    // Error path: the write already failed, the close result adds nothing.
    (void)std::fclose(file);
    return false;
  }
  return std::fclose(file) == 0;
}

bool checked_read(const char* path, void* data, unsigned long size) {
  std::FILE* file = std::fopen(path, "rb");
  if (file == nullptr) return false;
  const bool ok = std::fread(data, 1, size, file) == size;
  return std::fclose(file) == 0 && ok;
}
