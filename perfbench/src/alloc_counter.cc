// Binary-wide counting operator new for the traced run's per-stage
// allocation counts: malloc/free pass-through plus a process-wide relaxed
// counter, bumped only while perfbench::g_count_allocs is set. Every
// replaceable form is replaced so no allocation pairs a library new with
// this file's free-based delete.

#include <cstdlib>
#include <new>

#include "probe.h"

namespace {

inline void Count() {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed))
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void* Alloc(std::size_t size) {
  Count();
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AlignedAlloc(std::size_t size, std::size_t align) {
  Count();
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded > 0 ? rounded : align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocNoThrow(std::size_t size) noexcept {
  Count();
  return std::malloc(size > 0 ? size : 1);
}

void* AlignedAllocNoThrow(std::size_t size, std::size_t align) noexcept {
  Count();
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded > 0 ? rounded : align);
}

}  // namespace

void* operator new(std::size_t size) { return Alloc(size); }
void* operator new[](std::size_t size) { return Alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return AlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return AllocNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return AllocNoThrow(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return AlignedAllocNoThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return AlignedAllocNoThrow(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
