#include "array/storage.hh"

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
  void* p;
  std::size_t bytes;
};

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

void poison([[maybe_unused]] const Block& b) {
#ifdef WAVEPIPE_ASAN
  ASAN_POISON_MEMORY_REGION(b.p, b.bytes);
#endif
}

void unpoison([[maybe_unused]] const Block& b) {
#ifdef WAVEPIPE_ASAN
  ASAN_UNPOISON_MEMORY_REGION(b.p, b.bytes);
#endif
}

void free_blocks(const std::vector<Block>& blocks) {
  for (const Block& b : blocks) {
    unpoison(b);
    ::operator delete(b.p);
  }
}

}  // namespace

void* acquire_storage(std::size_t bytes) {
  if (bytes < kRecycleMinBytes) return ::operator new(bytes);
  std::vector<Block> stale;
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
    ++c.misses;
    stale.swap(c.parked);
  }
  free_blocks(stale);
  return ::operator new(bytes);
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
    ::operator delete(p);
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
