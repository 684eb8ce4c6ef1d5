#include "alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<int64_t> g_allocs{0};

void* CountedAlloc(std::size_t size, std::size_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align <= alignof(std::max_align_t)) {
    return std::malloc(size ? size : 1);
  }
  void* p = nullptr;
  return posix_memalign(&p, align, size ? size : align) == 0 ? p : nullptr;
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align) {
  if (void* p = CountedAlloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

int64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
