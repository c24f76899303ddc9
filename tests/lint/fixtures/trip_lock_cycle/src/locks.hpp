// Minimal stand-ins: massf-check keys on the `util::MutexLock name(expr)`
// token shape, not on the real headers.
#pragma once

namespace util {
struct Mutex {};
struct MutexLock {
  explicit MutexLock(Mutex&) {}
};
}  // namespace util

extern util::Mutex g_a;
extern util::Mutex g_b;
