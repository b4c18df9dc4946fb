#include "CountingNew.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace rapt::perfbench {
namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::int64_t> gAllocs{0};

void* countedAlloc(std::size_t size) {
  if (gCounting.load(std::memory_order_relaxed)) gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (gCounting.load(std::memory_order_relaxed)) gAllocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  for (;;) {
    if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void setAllocCounting(bool on) { gCounting.store(on, std::memory_order_relaxed); }

std::int64_t allocCount() { return gAllocs.load(std::memory_order_relaxed); }

}  // namespace rapt::perfbench

// Replacements for the global allocation functions. The array and nothrow
// forms route through these, and every delete form frees with std::free.
void* operator new(std::size_t size) { return rapt::perfbench::countedAlloc(size); }
void* operator new[](std::size_t size) { return rapt::perfbench::countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return rapt::perfbench::countedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return rapt::perfbench::countedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return rapt::perfbench::countedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return rapt::perfbench::countedAlignedAlloc(size, align);
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
