#include "array/storage.hh"

#include <cstdint>
#include <mutex>

#if defined(__SANITIZE_ADDRESS__)
#define WAVEPIPE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WAVEPIPE_ASAN 1
#endif
#endif

#ifdef WAVEPIPE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace wavepipe {

namespace {

struct Block {
  void* p;  // as acquire_storage returned it
  std::size_t bytes;
};

// A fresh recyclable block starts kStaggerStep * (n mod kPage / kStaggerStep)
// bytes into a page-aligned allocation, n counting fresh blocks. Arrays of
// one shape then start at different offsets within a page, so a load from
// one does not falsely wait on a recent store to another at the same index:
// the CPU matches loads against pending stores by their low 12 address bits
// first (4K aliasing). The offset is below kPage, so the page that holds the
// start is the allocation's own.
constexpr std::size_t kPage = 4096;
constexpr std::size_t kStaggerStep = 64;

char* allocation_of(const Block& b) {
  return reinterpret_cast<char*>(reinterpret_cast<std::uintptr_t>(b.p) &
                                 ~std::uintptr_t{kPage - 1});
}

[[maybe_unused]] std::size_t allocated_bytes(const Block& b) {
  return static_cast<std::size_t>(static_cast<char*>(b.p) - allocation_of(b)) +
         b.bytes;
}

void* allocate_staggered(std::size_t bytes, std::uint64_t n) {
  const std::size_t offset = kStaggerStep * (n % (kPage / kStaggerStep));
  return static_cast<char*>(
             ::operator new(offset + bytes, std::align_val_t{kPage})) +
         offset;
}

void free_staggered(const Block& b) {
  ::operator delete(allocation_of(b), std::align_val_t{kPage});
}

struct RecycleCache {
  std::mutex mu;
  std::vector<Block> parked;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

// Never destroyed: an array with static storage duration may release its
// block while the program exits.
RecycleCache& cache() {
  static RecycleCache* const c = new RecycleCache;
  return *c;
}

// The whole allocation, stagger included.
void poison([[maybe_unused]] const Block& b) {
#ifdef WAVEPIPE_ASAN
  ASAN_POISON_MEMORY_REGION(allocation_of(b), allocated_bytes(b));
#endif
}

void unpoison([[maybe_unused]] const Block& b) {
#ifdef WAVEPIPE_ASAN
  ASAN_UNPOISON_MEMORY_REGION(allocation_of(b), allocated_bytes(b));
#endif
}

void free_blocks(const std::vector<Block>& blocks) {
  for (const Block& b : blocks) {
    unpoison(b);
    free_staggered(b);
  }
}

}  // namespace

void* acquire_storage(std::size_t bytes) {
  if (bytes < kRecycleMinBytes) return ::operator new(bytes);
  std::vector<Block> stale;
  std::uint64_t n = 0;
  {
    RecycleCache& c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    // Newest first: the block most recently freed is the likeliest to be
    // warm in cache.
    for (std::size_t k = c.parked.size(); k-- > 0;) {
      const Block b = c.parked[k];
      if (b.bytes != bytes) continue;
      c.parked[k] = c.parked.back();
      c.parked.pop_back();
      ++c.hits;
      unpoison(b);
      return b.p;
    }
    n = c.misses++;
    stale.swap(c.parked);
  }
  free_blocks(stale);
  return allocate_staggered(bytes, n);
}

void release_storage(void* p, std::size_t bytes) noexcept {
  if (bytes < kRecycleMinBytes) {
    ::operator delete(p);
    return;
  }
  const Block b{p, bytes};
  poison(b);
  try {
    RecycleCache& c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    c.parked.push_back(b);
  } catch (...) {
    unpoison(b);  // no room to park it: free it instead
    free_staggered(b);
  }
}

StorageCacheStats storage_cache_stats() {
  RecycleCache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  StorageCacheStats s;
  s.hits = c.hits;
  s.misses = c.misses;
  for (const Block& b : c.parked) s.parked.push_back(b.bytes);
  return s;
}

void release_storage_cache() {
  std::vector<Block> stale;
  {
    RecycleCache& c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    stale.swap(c.parked);
  }
  free_blocks(stale);
}

}  // namespace wavepipe
