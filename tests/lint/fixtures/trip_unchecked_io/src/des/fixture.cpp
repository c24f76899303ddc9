// massf-check fixture: MUST trip `unchecked-io` (three ways).
// A discarded fwrite/fread result hides short transfers and a discarded
// fclose hides flush failures — either one can tear a checkpoint that the
// atomic write-rename protocol was supposed to make durable.
#include <cstdio>

void careless_checkpoint(const char* path, const void* data,
                         unsigned long size) {
  std::FILE* file = std::fopen(path, "wb");
  if (file == nullptr) return;
  fwrite(data, 1, size, file);
  fclose(file);
}

void careless_read(const char* path, void* data, unsigned long size) {
  std::FILE* file = std::fopen(path, "rb");
  if (file == nullptr) return;
  std::fread(data, 1, size, file);
  if (std::fclose(file) != 0) return;
}
