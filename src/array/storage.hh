// Array storage: the allocator behind every DenseArray.
//
// Building a rank's arrays should cost one write per element and no page
// faults after the first run (DESIGN.md "Array storage"). Two rules give
// that:
//   * A value-less construct default-initializes. An array built for
//     overwrite (DenseArray's kForOverwrite constructor) is therefore not
//     zero-filled before its owner writes every element.
//   * Blocks of at least kRecycleMinBytes go through one process-wide
//     recycle cache. A freed block is parked, and only a request of exactly
//     its size takes it back, so the next run's arrays land on pages that
//     are already mapped. A request that finds no parked block of its size
//     first frees every parked block: at most one size generation stays
//     resident, and the cache never holds more blocks of a size than were
//     live at once.
// A fresh recyclable block also starts at its own multiple of 64 B within
// a page (cycling through all 64 of them), so equal-sized arrays do not
// share their low 12 address bits and loads from one do not falsely wait on
// stores to another (4K aliasing). A recycled block keeps its address.
// Under AddressSanitizer parked blocks are poisoned, stagger included, so a
// use after free is still reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace wavepipe {

/// Blocks at least this large are recycled; smaller ones go straight to
/// operator new and delete.
inline constexpr std::size_t kRecycleMinBytes = std::size_t{1} << 20;

/// Uninitialized storage of `bytes` bytes, aligned for any type whose
/// alignment does not exceed __STDCPP_DEFAULT_NEW_ALIGNMENT__.
void* acquire_storage(std::size_t bytes);

/// Returns storage obtained from acquire_storage(bytes).
void release_storage(void* p, std::size_t bytes) noexcept;

struct StorageCacheStats {
  std::uint64_t hits = 0;    // recyclable requests served by a parked block
  std::uint64_t misses = 0;  // recyclable requests that allocated afresh
  std::vector<std::size_t> parked;  // sizes of the blocks parked now
};

StorageCacheStats storage_cache_stats();

/// Frees every parked block.
void release_storage_cache();

/// The std::vector allocator of DenseArray: storage from acquire_storage,
/// and default-initialization on a value-less construct.
template <typename T>
class StorageAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "over-aligned element types are not supported");

 public:
  using value_type = T;

  StorageAllocator() = default;
  template <typename U>
  StorageAllocator(const StorageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T))
      throw std::bad_array_new_length();
    return static_cast<T*>(acquire_storage(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    release_storage(p, n * sizeof(T));
  }

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const StorageAllocator&, const StorageAllocator&) {
    return true;
  }
};

}  // namespace wavepipe
