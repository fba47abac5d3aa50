// Array storage (array/storage.hh): the recycle cache's exact-size reuse
// and its one-generation bound, page-fault-free rebuilds, concurrent use,
// and the write-once contract of the apps: every app builds its arrays for
// overwrite, so each must compute the same bits on recycled blocks full of
// NaN as on fresh memory.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "apps/alt_sweep.hh"
#include "apps/simple_hydro.hh"
#include "apps/smith_waterman.hh"
#include "apps/sor.hh"
#include "apps/sweep3d.hh"
#include "apps/tomcatv.hh"

#if defined(__SANITIZE_ADDRESS__)
#define WAVEPIPE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WAVEPIPE_TEST_ASAN 1
#endif
#endif

#ifdef WAVEPIPE_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace wavepipe {
namespace {

constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();

// A 1-D array whose storage is exactly `bytes` bytes.
DenseArray<Real, 1> block_of(std::size_t bytes, Real value = 0.0) {
  const Coord len = static_cast<Coord>(bytes / sizeof(Real));
  return DenseArray<Real, 1>("block", Region<1>(Idx<1>{{0}}, Idx<1>{{len - 1}}),
                             StorageOrder::kColMajor, value);
}

std::vector<std::size_t> parked_sorted() {
  std::vector<std::size_t> v = storage_cache_stats().parked;
  std::sort(v.begin(), v.end());
  return v;
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

TEST(ArrayStorage, SmallBlocksBypassTheCache) {
  release_storage_cache();
  const StorageCacheStats before = storage_cache_stats();
  { DenseArray<Real, 1> a = block_of(kRecycleMinBytes - sizeof(Real)); }
  const StorageCacheStats after = storage_cache_stats();
  EXPECT_TRUE(after.parked.empty());
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(ArrayStorage, ReuseNeedsTheExactSize) {
  release_storage_cache();
  const std::size_t a = kRecycleMinBytes;
  const void* first = nullptr;
  {
    DenseArray<Real, 1> x = block_of(a);
    first = x.raw().data();
  }
  EXPECT_EQ(parked_sorted(), std::vector<std::size_t>{a});
  const StorageCacheStats s0 = storage_cache_stats();
  {
    DenseArray<Real, 1> y = block_of(a);
    EXPECT_EQ(y.raw().data(), first);  // the parked block itself
    EXPECT_TRUE(storage_cache_stats().parked.empty());
  }
  // Neither a larger nor a smaller request takes a parked block.
  { DenseArray<Real, 1> z = block_of(a + sizeof(Real)); }
  EXPECT_EQ(parked_sorted(), std::vector<std::size_t>{a + sizeof(Real)});
  { DenseArray<Real, 1> w = block_of(a); }
  EXPECT_EQ(parked_sorted(), std::vector<std::size_t>{a});
  const StorageCacheStats s1 = storage_cache_stats();
  EXPECT_EQ(s1.hits - s0.hits, 1u);
  EXPECT_EQ(s1.misses - s0.misses, 2u);
}

TEST(ArrayStorage, AMissFreesEveryParkedBlock) {
  release_storage_cache();
  const std::size_t a = kRecycleMinBytes, b = 2 * kRecycleMinBytes;
  {
    DenseArray<Real, 1> x = block_of(a);
    DenseArray<Real, 1> y = block_of(a);
  }
  EXPECT_EQ(parked_sorted(), (std::vector<std::size_t>{a, a}));
  {
    DenseArray<Real, 1> z = block_of(b);
    // No size-A block outlives the miss at size B.
    EXPECT_TRUE(storage_cache_stats().parked.empty());
  }
  EXPECT_EQ(parked_sorted(), std::vector<std::size_t>{b});
  release_storage_cache();
  EXPECT_TRUE(storage_cache_stats().parked.empty());
}

TEST(ArrayStorage, ValueConstructorOverwritesARecycledBlock) {
  release_storage_cache();
  const std::size_t bytes = kRecycleMinBytes;
  { DenseArray<Real, 1> poison = block_of(bytes, kNaN); }
  const std::uint64_t hits = storage_cache_stats().hits;
  DenseArray<Real, 1> a = block_of(bytes);  // value-initialized: 0.0
  EXPECT_EQ(storage_cache_stats().hits - hits, 1u);
  EXPECT_TRUE(std::all_of(a.raw().begin(), a.raw().end(),
                          [](Real v) { return std::bit_cast<std::uint64_t>(v) == 0; }));
}

#ifdef WAVEPIPE_TEST_ASAN
TEST(ArrayStorage, ParkedBlocksArePoisoned) {
  release_storage_cache();
  const Real* p = nullptr;
  {
    DenseArray<Real, 1> a = block_of(kRecycleMinBytes);
    p = a.raw().data();
    EXPECT_FALSE(__asan_address_is_poisoned(p));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + kRecycleMinBytes / sizeof(Real) - 1));
  DenseArray<Real, 1> b = block_of(kRecycleMinBytes);
  ASSERT_EQ(b.raw().data(), p);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
}
#endif

// AddressSanitizer releases the shadow of a large unpoisoned region to the
// OS and quarantines small frees, so under it minor faults count the
// sanitizer's paging, not the arrays'.
#ifndef WAVEPIPE_TEST_ASAN
TEST(ArrayStorage, RebuildingTomcatvAddsNoPageFaults) {
  TomcatvConfig cfg;
  cfg.n = 1024;
  const ProcGrid<2> grid({1, 1});
  std::size_t array_bytes = 0;
  {
    Tomcatv warm(cfg, grid, 0);  // parks the eight arrays on destruction
    array_bytes = 8 * warm.x().raw().size() * sizeof(Real);
  }
  const long before = minor_faults();
  for (int i = 0; i < 10; ++i) Tomcatv app(cfg, grid, 0);
  const long added = minor_faults() - before;
  const long pages = static_cast<long>(array_bytes) / sysconf(_SC_PAGESIZE);
  EXPECT_LT(added, pages / 100) << added << " minor faults over 10 rebuilds; "
                                << "one rebuild's arrays span " << pages
                                << " pages";
}
#endif

TEST(ArrayStorage, ThreadsBuildAndDestroyConcurrently) {
  // Two sizes above the threshold, so hits, misses and releases of the
  // other size's blocks interleave across threads.
  constexpr std::size_t kSizes[] = {kRecycleMinBytes,
                                    kRecycleMinBytes + 64 * sizeof(Real)};
  constexpr int kThreads = 4, kRounds = 20;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t, &wrong, &kSizes] {
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t bytes = kSizes[(t + r) % 2];
        const Coord len = static_cast<Coord>(bytes / sizeof(Real));
        DenseArray<Real, 1> a("a", Region<1>(Idx<1>{{0}}, Idx<1>{{len - 1}}),
                              StorageOrder::kColMajor, kForOverwrite);
        const Real tag = static_cast<Real>(t * 1000 + r);
        a.fill_fn([tag](const Idx<1>& i) { return tag + static_cast<Real>(i.v[0]); });
        DenseArray<Real, 1> zeros = block_of(bytes);
        for (Coord i = 0; i < len; ++i)
          if (a(i) != tag + static_cast<Real>(i) || zeros(i) != 0.0) {
            ++wrong;
            break;
          }
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  for (std::size_t bytes : storage_cache_stats().parked)
    EXPECT_TRUE(bytes == kSizes[0] || bytes == kSizes[1]) << bytes;
}

// --- the write-once contract of the apps ---------------------------------

using Bits = std::vector<std::uint64_t>;

void put(Bits& out, Real v) { out.push_back(std::bit_cast<std::uint64_t>(v)); }

template <Rank R>
void put(Bits& out, const DenseArray<Real, R>& a) {
  for (Real v : a.raw()) put(out, v);
}

// Runs `body` on p ranks and returns every rank's bits in rank order.
Bits run_ranks(int p, const std::function<void(Communicator&, Bits&)>& body) {
  std::vector<Bits> per(static_cast<std::size_t>(p));
  Machine::run(p, CostModel{}, [&](Communicator& comm) {
    body(comm, per[static_cast<std::size_t>(comm.rank())]);
  });
  Bits all;
  for (const Bits& b : per) all.insert(all.end(), b.begin(), b.end());
  return all;
}

// Runs the app on fresh memory, then again with a NaN-filled block parked
// for every block the first run left in the cache. The second run must
// allocate nothing new (it runs on the NaN blocks) and match bit for bit.
void expect_write_once(int p,
                       const std::function<void(Communicator&, Bits&)>& body) {
  release_storage_cache();
  const Bits clean = run_ranks(p, body);
  const std::vector<std::size_t> sizes = storage_cache_stats().parked;
  ASSERT_FALSE(sizes.empty()) << "the app's arrays are below kRecycleMinBytes";
  {
    std::vector<DenseArray<Real, 1>> poison;
    for (std::size_t bytes : sizes) poison.push_back(block_of(bytes, kNaN));
    ASSERT_TRUE(storage_cache_stats().parked.empty());
  }
  const StorageCacheStats s0 = storage_cache_stats();
  const Bits poisoned = run_ranks(p, body);
  const StorageCacheStats s1 = storage_cache_stats();
  EXPECT_EQ(s1.misses, s0.misses);
  EXPECT_GE(s1.hits - s0.hits, sizes.size());
  EXPECT_EQ(poisoned.size(), clean.size());
  EXPECT_TRUE(poisoned == clean);
}

WaveOptions block16() {
  WaveOptions o;
  o.block = 16;
  return o;
}

TEST(ArrayStorageWriteOnce, Tomcatv) {
  expect_write_once(2, [](Communicator& comm, Bits& out) {
    TomcatvConfig cfg;
    cfg.n = 520;
    Tomcatv app(cfg, ProcGrid<2>::along_dim(comm.size(), 0), comm.rank());
    put(out, app.iterate(comm, block16()));
    put(out, app.checksum(comm));
    put(out, app.x());
    put(out, app.y());
    put(out, app.rx());
  });
}

TEST(ArrayStorageWriteOnce, Sor) {
  expect_write_once(2, [](Communicator& comm, Bits& out) {
    SorConfig cfg;
    cfg.n = 520;
    Sor app(cfg, ProcGrid<2>::along_dim(comm.size(), 0), comm.rank());
    app.sweep(comm, block16());
    put(out, app.residual_norm(comm));
    put(out, app.checksum(comm));
    put(out, app.u());
  });
}

TEST(ArrayStorageWriteOnce, SmithWaterman) {
  expect_write_once(2, [](Communicator& comm, Bits& out) {
    SmithWatermanConfig cfg;
    cfg.la = cfg.lb = 519;  // 520 rows with the boundary: even per rank
    SmithWaterman app(cfg, ProcGrid<2>::along_dim(comm.size(), 0),
                      comm.rank());
    app.fill(comm, block16());
    put(out, app.best_score(comm));
    put(out, app.checksum(comm));
    put(out, app.h());
  });
}

TEST(ArrayStorageWriteOnce, SmithWaterman2d) {
  expect_write_once(4, [](Communicator& comm, Bits& out) {
    SmithWatermanConfig cfg;
    cfg.la = cfg.lb = 723;
    SmithWaterman app(cfg, ProcGrid<2>::factored(comm.size(), {0, 1}),
                      comm.rank());
    WaveOptions o = block16();
    o.block_w = 16;
    app.fill(comm, o);
    put(out, app.best_score(comm));
    put(out, app.checksum(comm));
    put(out, app.h());
  });
}

TEST(ArrayStorageWriteOnce, Sweep3d) {
  expect_write_once(2, [](Communicator& comm, Bits& out) {
    Sweep3dConfig cfg;
    cfg.n = 64;
    Sweep3d app(cfg, ProcGrid<3>::along_dim(comm.size(), 0), comm.rank());
    put(out, app.sweep_all(comm, block16()));
    put(out, app.checksum(comm));
    put(out, app.phi());
    put(out, app.flux());
  });
}

TEST(ArrayStorageWriteOnce, Sweep3dScheduledSlots) {
  expect_write_once(2, [](Communicator& comm, Bits& out) {
    Sweep3dConfig cfg;
    cfg.n = 64;
    Sweep3d app(cfg, ProcGrid<3>::along_dim(comm.size(), 0), comm.rank());
    put(out, app.sweep_all_scheduled(comm, block16(), SchedOptions{}, nullptr,
                                     /*slots=*/2));
    put(out, app.checksum(comm));
    put(out, app.phi());
    put(out, app.flux());
  });
}

TEST(ArrayStorageWriteOnce, SimpleHydro) {
  expect_write_once(2, [](Communicator& comm, Bits& out) {
    SimpleConfig cfg;
    cfg.n = 520;
    SimpleHydro app(cfg, ProcGrid<2>::along_dim(comm.size(), 0), comm.rank());
    put(out, app.step(comm, block16()));
    put(out, app.checksum(comm));
  });
}

TEST(ArrayStorageWriteOnce, AltSweep) {
  expect_write_once(2, [](Communicator& comm, Bits& out) {
    AltSweepConfig cfg;
    cfg.n = 520;
    AltSweep app(cfg, ProcGrid<2>::along_dim(comm.size(), 0), comm.rank());
    app.iterate(comm, VerticalStrategy::kPipelined, block16());
    put(out, app.checksum(comm));
    // The transposed twins are only read by the transpose strategy.
    app.iterate(comm, VerticalStrategy::kTranspose, block16());
    put(out, app.checksum(comm));
  });
}

}  // namespace
}  // namespace wavepipe
