#include "ckpt/ckpt.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define MASSF_CKPT_HAVE_FSYNC 1
#endif

namespace massf::ckpt {

namespace {

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// Test-only; installed/cleared outside run_until and read from the single
// thread that drives the safepoint hook, so no synchronization.
CrashHook g_crash_hook;

constexpr std::size_t kHeaderSize = 20;  // magic u32, version u32, size u64, crc u32

void put_u32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = crc_table()[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void set_crash_hook(CrashHook hook) { g_crash_hook = std::move(hook); }

void maybe_crash(const char* phase) {
  if (g_crash_hook) g_crash_hook(phase);
}

void Writer::u32(std::uint32_t v) {
  unsigned char b[4];
  put_u32(b, v);
  buf_.insert(buf_.end(), b, b + 4);
}

void Writer::u64(std::uint64_t v) {
  unsigned char b[8];
  put_u64(b, v);
  buf_.insert(buf_.end(), b, b + 8);
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Writer::str(const std::string& s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::commit(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr)
    throw CkptError("checkpoint: cannot open '" + tmp + "' for writing");
  auto fail = [&](const char* what) {
    // massf-check: allow(unchecked-io) — best-effort cleanup after a failure
    std::fclose(f);
    std::remove(tmp.c_str());
    throw CkptError(std::string("checkpoint: ") + what + " failed for '" +
                    tmp + "'");
  };

  unsigned char header[kHeaderSize];
  put_u32(header, kMagic);
  put_u32(header + 4, kFormatVersion);
  put_u64(header + 8, buf_.size());
  put_u32(header + 16, crc32(buf_.data(), buf_.size()));

  if (std::fwrite(header, 1, sizeof header, f) != sizeof header)
    fail("header write");
  if (!buf_.empty() &&
      std::fwrite(buf_.data(), 1, buf_.size(), f) != buf_.size())
    fail("payload write");
  if (std::fflush(f) != 0) fail("flush");
#ifdef MASSF_CKPT_HAVE_FSYNC
  if (::fsync(::fileno(f)) != 0) fail("fsync");
#endif
  if (std::fclose(f) != 0) {
    // Best-effort cleanup after a failure.
    std::remove(tmp.c_str());
    throw CkptError("checkpoint: close failed for '" + tmp + "'");
  }

  // A kill here must leave the previous snapshot at `path` untouched: only
  // the .tmp file exists in the new version until the rename below.
  maybe_crash("mid-write");

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    // Best-effort cleanup after a failure.
    std::remove(tmp.c_str());
    throw CkptError("checkpoint: rename '" + tmp + "' -> '" + path +
                    "' failed");
  }
}

Reader Reader::from_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw CkptError("checkpoint: cannot open '" + path + "' for reading");
  auto fail = [&](const std::string& what) {
    // massf-check: allow(unchecked-io) — best-effort cleanup after a failure
    std::fclose(f);
    throw CkptError("checkpoint '" + path + "': " + what);
  };

  unsigned char header[kHeaderSize];
  const std::size_t got_header = std::fread(header, 1, sizeof header, f);
  if (got_header != sizeof header)
    fail("file too short to hold a checkpoint header (" +
         std::to_string(got_header) + " of " + std::to_string(kHeaderSize) +
         " bytes) — truncated or not a checkpoint");
  const std::uint32_t magic = get_u32(header);
  if (magic != kMagic) {
    std::ostringstream os;
    os << "bad magic 0x" << std::hex << magic
       << " (expected 0x" << kMagic << ") — not a massf checkpoint";
    fail(os.str());
  }
  const std::uint32_t version = get_u32(header + 4);
  if (version != kFormatVersion)
    fail("format version " + std::to_string(version) +
         " is not supported (this build reads version " +
         std::to_string(kFormatVersion) + ")");
  const std::uint64_t payload_size = get_u64(header + 8);
  const std::uint32_t expected_crc = get_u32(header + 16);

  std::vector<unsigned char> payload(payload_size);
  const std::size_t got = payload.empty()
                              ? 0
                              : std::fread(payload.data(), 1, payload.size(), f);
  if (got != payload.size())
    fail("truncated: header claims " + std::to_string(payload_size) +
         " payload bytes but only " + std::to_string(got) +
         " are present — discard this snapshot and fall back to an older one");
  if (std::fclose(f) != 0)
    throw CkptError("checkpoint '" + path + "': close failed after read");

  const std::uint32_t actual_crc = crc32(payload.data(), payload.size());
  if (actual_crc != expected_crc) {
    std::ostringstream os;
    os << "checkpoint '" << path << "': CRC mismatch (stored 0x" << std::hex
       << expected_crc << ", computed 0x" << actual_crc
       << ") — the payload is corrupted; discard this snapshot and fall "
          "back to an older one";
    throw CkptError(os.str());
  }
  return Reader(std::move(payload), path);
}

void Reader::fail(const std::string& message) const {
  std::string prefix = "checkpoint";
  if (!source_.empty()) prefix += " '" + source_ + "'";
  throw CkptError(prefix + ": " + message);
}

void Reader::need(std::size_t n, const char* what) {
  if (buf_.size() - pos_ < n) {
    std::ostringstream os;
    os << "payload ended while reading " << what << " at offset " << pos_
       << " (" << (buf_.size() - pos_) << " of " << n
       << " bytes available) — layout mismatch or truncated section";
    fail(os.str());
  }
}

std::uint8_t Reader::u8() {
  need(1, "u8");
  return buf_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4, "u32");
  const std::uint32_t v = get_u32(buf_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8, "u64");
  const std::uint64_t v = get_u64(buf_.data() + pos_);
  pos_ += 8;
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Reader::str() {
  const std::uint64_t n = u64();
  need(n, "string body");
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void Reader::entries(std::uint64_t& n, std::size_t bytes,
                     const char* what) {
  const std::size_t at = pos_;
  n = u64();
  if (n > remaining() / bytes) {
    std::ostringstream os;
    os << what << " claims " << n << " entries at offset " << at
       << " but only " << remaining() << " payload bytes remain (at least "
       << bytes << " per entry) — corrupt length field; discard this "
       << "snapshot and fall back to an older one";
    fail(os.str());
  }
}

void Reader::expect_tag(std::uint32_t t, const char* what) {
  const std::size_t at = pos_;
  const std::uint32_t actual = u32();
  if (actual != t) {
    std::ostringstream os;
    os << "expected section '" << what << "' (tag 0x" << std::hex << t
       << ") at offset " << std::dec << at << " but found tag 0x" << std::hex
       << actual << " — snapshot layout does not match this build";
    fail(os.str());
  }
}

std::string checkpoint_filename(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt_%012llu.bin",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool parse_checkpoint_seq(const std::string& filename, std::uint64_t& seq) {
  if (filename.size() != 21 || filename.rfind("ckpt_", 0) != 0 ||
      filename.compare(17, 4, ".bin") != 0)
    return false;
  std::uint64_t v = 0;
  for (std::size_t i = 5; i < 17; ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  seq = v;
  return true;
}

std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::uint64_t seq = 0;
    if (parse_checkpoint_seq(entry.path().filename().string(), seq))
      out.emplace_back(seq, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace massf::ckpt
