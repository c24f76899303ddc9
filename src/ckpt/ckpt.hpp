// Checkpoint container format: a versioned, CRC-checksummed byte stream
// written with an atomic write-rename protocol (DESIGN.md §12).
//
// The format is deliberately dumb: a fixed header (magic, format version,
// payload size, CRC32 of the payload) followed by a flat little-endian
// payload that the kernel/emulator serialize into section-tagged fields.
// Writer buffers the whole payload in memory and commits it in one shot:
// write to `<path>.tmp`, flush, fsync, then rename(2) over `<path>` — so a
// crash at any point during checkpointing leaves either the previous
// snapshot or a complete new one, never a torn file. Reader validates the
// header and CRC up front and then hands out bounds-checked fields; every
// failure throws CkptError with an actionable message naming the file and
// the offending section.
//
// Two-direction calls: each checkpointed type lists its fields once, in a
// `template <class Io>` body run against a Writer on save and a Reader on
// load, so the byte layout is one call sequence and save/load cannot
// disagree. `io.u64(x)` writes x or reads into x (narrower integers, bools
// and enums widen on save; on load a value the field cannot hold throws);
// likewise u8/u32/i64/f64 and tag(t, what). `same_u8/u64/f64(v)` writes v,
// or reads and returns whether it equals v, so `MASSF_REQUIRE(io.same_u64(
// n), ...)` rejects a mismatched snapshot. `entries(n, bytes, what)` is a
// count that on load must fit in the remaining payload at `bytes` per entry
// — checked before anything is allocated; CkptError names section `what`.
// `len(c, ...)` is entries(c.size()) plus a resize on load, `f64s/u64s(v,
// what)` a len plus every element, `nested(obj)` obj.save / obj.load. Steps
// that run in one direction only branch on `if constexpr (Io::kLoading)`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace massf::ckpt {

/// Any checkpoint failure: unreadable/corrupt/truncated file, version
/// mismatch, or a payload that does not match the expected section layout.
class CkptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by the default chaos-test crash hooks (see set_crash_hook) to
/// simulate a process kill at a checkpoint phase boundary.
class InjectedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// "MSCK" little-endian.
constexpr std::uint32_t kMagic = 0x4b43534du;
/// Bump on any payload layout change; Reader rejects mismatches. Version 2:
/// ACK trains and their NetFlow records carry the acknowledged flow's key,
/// not a per-message one.
constexpr std::uint32_t kFormatVersion = 2;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `size` bytes.
std::uint32_t crc32(const void* data, std::size_t size);

/// Test-only crash injection. When set, maybe_crash(phase) invokes the hook
/// with the phase name ("before-checkpoint", "mid-write",
/// "after-checkpoint"); a hook that throws simulates a kill at that point.
/// Install/clear strictly outside run_until — the hook is read without
/// synchronization from whichever thread drives the safepoint.
using CrashHook = std::function<void(const char* phase)>;
void set_crash_hook(CrashHook hook);
void maybe_crash(const char* phase);

/// Append-only payload buffer plus the atomic commit step.
class Writer {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  template <class E, std::enable_if_t<std::is_enum_v<E>, int> = 0>
  void u8(E v) { u8(static_cast<std::uint8_t>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void str(const std::string& s);
  /// Section marker; Reader::expect_tag verifies layout drift loudly.
  void tag(std::uint32_t t) { u32(t); }
  void tag(std::uint32_t t, const char* /*what*/) { u32(t); }

  // Two-direction calls (see the header comment).
  bool same_u8(std::uint8_t v) { u8(v); return true; }
  bool same_u64(std::uint64_t v) { u64(v); return true; }
  bool same_f64(double v) { f64(v); return true; }
  void entries(std::uint64_t n, std::size_t, const char*) { u64(n); }
  template <class C>
  void len(const C& c, std::size_t bytes, const char* what) {
    entries(c.size(), bytes, what);
  }
  template <class V>
  void f64s(const V& v, const char* what) {
    len(v, 8, what);
    for (double x : v) f64(x);
  }
  template <class V>
  void u64s(const V& v, const char* what) {
    len(v, 8, what);
    for (std::uint64_t x : v) u64(x);
  }
  template <class T>
  void nested(const T& obj) { obj.save(*this); }

  /// Atomically publish header+payload at `path` (tmp write, flush, fsync,
  /// rename). Calls maybe_crash("mid-write") after the tmp file is durable
  /// but before the rename — the window where a kill must not destroy the
  /// previous snapshot.
  void commit(const std::string& path) const;

 private:
  std::vector<unsigned char> buf_;
};

/// Bounds-checked cursor over a validated payload.
class Reader {
 public:
  /// Read and validate a checkpoint file: header magic, format version,
  /// payload size (truncation) and CRC32 (corruption) — each rejection
  /// names the file and what disagreed.
  static Reader from_file(const std::string& path);

  explicit Reader(std::vector<unsigned char> payload, std::string source = "")
      : buf_(std::move(payload)), source_(std::move(source)) {}

  static constexpr bool kLoading = true;

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  void expect_tag(std::uint32_t t, const char* what);

  // Two-direction calls (see the header comment).
  template <class T> void u8(T& v) { v = fit<T>(u8()); }
  template <class T> void u32(T& v) { v = fit<T>(u32()); }
  template <class T> void u64(T& v) { v = fit<T>(u64()); }
  template <class T> void i64(T& v) { v = fit<T>(i64()); }
  void f64(double& v) { v = f64(); }
  void tag(std::uint32_t t, const char* what) { expect_tag(t, what); }
  bool same_u8(std::uint8_t v) { return u8() == v; }
  bool same_u64(std::uint64_t v) { return u64() == v; }
  bool same_f64(double v) { return f64() == v; }
  /// Reads an element count and rejects it unless `n` elements of at least
  /// `bytes` bytes each fit in the rest of the payload.
  void entries(std::uint64_t& n, std::size_t bytes, const char* what);
  template <class C>
  void len(C& c, std::size_t bytes, const char* what) {
    std::uint64_t n = 0;
    entries(n, bytes, what);
    c.clear();
    c.resize(static_cast<std::size_t>(n));
  }
  template <class V>
  void f64s(V& v, const char* what) {
    len(v, 8, what);
    for (double& x : v) f64(x);
  }
  template <class V>
  void u64s(V& v, const char* what) {
    len(v, 8, what);
    for (std::uint64_t& x : v) u64(x);
  }
  template <class T>
  void nested(T& obj) { obj.load(*this); }

  std::size_t remaining() const { return buf_.size() - pos_; }

  /// Throws CkptError: `message`, prefixed with the source file.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  void need(std::size_t n, const char* what);

  /// `raw` as a T, or CkptError when the field cannot hold it.
  template <class T, class U>
  T fit(U raw) const {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "floating-point fields use f64");
    const T v = static_cast<T>(raw);
    if (static_cast<U>(v) != raw)
      fail("value " + std::to_string(raw) + " ending at offset " +
           std::to_string(pos_) +
           " does not fit its field — layout mismatch or corrupt snapshot");
    return v;
  }

  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
  std::string source_;
};

/// "ckpt_000000000042.bin" — fixed width so lexical order == numeric order.
std::string checkpoint_filename(std::uint64_t seq);
/// Parse the sequence number out of a checkpoint_filename-shaped name.
bool parse_checkpoint_seq(const std::string& filename, std::uint64_t& seq);
/// All checkpoint files directly under `dir`, sorted ascending by sequence
/// number; each entry is (seq, full path). Missing dir → empty list.
std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir);

}  // namespace massf::ckpt
