#pragma once

// Heap-block counter for the allocation-regression tests. It replaces the
// global operator new, so include it from exactly one translation unit of a
// test executable. Only the thread inside count_heap_blocks() counts: the
// threaded runtime's other ranks allocate concurrently and are not charged.

#include <cstddef>
#include <cstdlib>
#include <new>

namespace alloc_counter {

inline thread_local bool counting = false;
inline thread_local std::size_t blocks = 0;

}  // namespace alloc_counter

// Not inlined: gcc's -Wmismatched-new-delete would otherwise pair the
// malloc() of an inlined new with the free() of an inlined delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (alloc_counter::counting) ++alloc_counter::blocks;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms too (std::stable_sort's buffer uses them): every block
// must come from and go back to the same allocator.
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (alloc_counter::counting) ++alloc_counter::blocks;
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

/// Heap blocks the calling thread allocates while `fn` runs.
template <class Fn>
std::size_t count_heap_blocks(Fn&& fn) {
  alloc_counter::blocks = 0;
  alloc_counter::counting = true;
  fn();
  alloc_counter::counting = false;
  return alloc_counter::blocks;
}
