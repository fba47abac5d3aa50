// DenseArray: the local storage type of the array language.
//
// A DenseArray<T, R> owns a rank-R rectangular block of elements addressed
// by *global* indices (its region need not start at zero — a distributed
// rank allocates exactly its owned-plus-fluff region in global
// coordinates). Storage order is a runtime property because the paper's
// uniprocessor cache study (Fig 6) depends on Fortran's column-major
// layout; the default here is column-major to match the benchmarks it
// reproduces.
//
// Elements live in a std::vector over StorageAllocator (array/storage.hh):
// large blocks are recycled across runs, and an array built for overwrite
// is not zero-filled first.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "array/storage.hh"
#include "index/pencil.hh"

namespace wavepipe {

enum class StorageOrder { kRowMajor, kColMajor };

/// The dimension whose unit stride is contiguous in memory.
constexpr Rank contiguous_dim(StorageOrder order, Rank rank) {
  return order == StorageOrder::kRowMajor ? rank - 1 : 0;
}

/// Tag of DenseArray's for-overwrite constructor (cf.
/// std::make_unique_for_overwrite).
struct ForOverwrite {
  explicit ForOverwrite() = default;
};
inline constexpr ForOverwrite kForOverwrite{};

template <typename T, Rank R>
class DenseArray {
 public:
  using Storage = std::vector<T, StorageAllocator<T>>;

  DenseArray(std::string name, const Region<R>& region,
             StorageOrder order = StorageOrder::kColMajor, T init = T{})
      : DenseArray(std::move(name), region, order, kForOverwrite) {
    std::fill(data_.begin(), data_.end(), init);
  }

  /// Builds the array with its elements default-initialized: an arithmetic
  /// T holds whatever its storage held (a recycled block keeps the values
  /// of its last array). The caller must write every element of region(),
  /// fluff included, before anything reads one.
  DenseArray(std::string name, const Region<R>& region, StorageOrder order,
             ForOverwrite)
      : name_(std::move(name)), region_(region), order_(order) {
    require(!region.empty(), "DenseArray needs a non-empty region");
    for (Rank d = 0; d < R; ++d) extent_[d] = region.extent(d);
    compute_strides();
    data_.resize(static_cast<std::size_t>(region.size()));
  }

  DenseArray(const DenseArray&) = delete;
  DenseArray& operator=(const DenseArray&) = delete;
  DenseArray(DenseArray&&) noexcept = default;
  DenseArray& operator=(DenseArray&&) noexcept = default;

  const std::string& name() const { return name_; }
  const Region<R>& region() const { return region_; }
  StorageOrder order() const { return order_; }
  Coord stride(Rank d) const { return stride_[d]; }

  /// Stable identity used by the DSL to recognize "the same array" across
  /// statements. Valid as long as the array is not moved.
  const void* id() const { return static_cast<const void*>(this); }

  /// Unchecked element access by global index.
  T& operator()(const Idx<R>& i) { return data_[offset(i)]; }
  const T& operator()(const Idx<R>& i) const { return data_[offset(i)]; }

  /// Convenience for rank-2/3 call sites: a(i, j), a(i, j, k).
  template <typename... C>
    requires(sizeof...(C) == R && (std::is_convertible_v<C, Coord> && ...))
  T& operator()(C... c) {
    return (*this)(Idx<R>{{static_cast<Coord>(c)...}});
  }
  template <typename... C>
    requires(sizeof...(C) == R && (std::is_convertible_v<C, Coord> && ...))
  const T& operator()(C... c) const {
    return (*this)(Idx<R>{{static_cast<Coord>(c)...}});
  }

  /// Checked element access.
  T& at(const Idx<R>& i) {
    require(region_.contains(i),
            "index " + to_string(i) + " outside array '" + name_ + "' region " +
                to_string(region_));
    return data_[offset(i)];
  }
  const T& at(const Idx<R>& i) const {
    return const_cast<DenseArray*>(this)->at(i);
  }

  void fill(T v) { data_.assign(data_.size(), v); }

  /// Storage-order loops: the contiguous dimension innermost, all
  /// ascending. Loops whose result does not depend on visit order walk
  /// pencils in this order.
  LoopStructure<R> storage_loops() const {
    return ascending_loops<R>(contiguous_dim(order_, R));
  }

  /// Calls `fn(i, element)` for every index of `where` (which must lie in
  /// the array) in storage order, one pointer walk per pencil.
  template <typename Fn>
  void for_each_element(const Region<R>& where, Fn&& fn) {
    walk_elements(*this, where, fn);
  }
  template <typename Fn>
  void for_each_element(const Region<R>& where, Fn&& fn) const {
    walk_elements(*this, where, fn);
  }

  /// Fills from a function of the global index. The visit order is storage
  /// order, so `fn` must not depend on it.
  template <typename Fn>
  void fill_fn(Fn&& fn) {
    for_each_element(region_, [&](const Idx<R>& i, T& x) { x = fn(i); });
  }

  /// Copies the values of `src` on `where` (must be contained in both).
  void copy_from(const DenseArray& src, const Region<R>& where) {
    require(region_.contains(where) && src.region().contains(where),
            "copy_from region must be contained in both arrays");
    iterate_pencils(where, storage_loops(),
                    [&](const Idx<R>& i, Rank inner, Coord, Coord n) {
                      T* d = &(*this)(i);
                      const T* s = &src(i);
                      const Coord ss = src.stride(inner);
                      for (Coord k = 0; k < n; ++k) d[k] = s[k * ss];
                    });
  }

  Storage& raw() { return data_; }
  const Storage& raw() const { return data_; }

  /// Linear offset of a global index into raw().
  std::size_t offset(const Idx<R>& i) const {
    Coord off = 0;
    for (Rank d = 0; d < R; ++d)
      off += (i.v[d] - region_.lo(d)) * stride_[d];
    return static_cast<std::size_t>(off);
  }

 private:
  template <typename Self, typename Fn>
  static void walk_elements(Self& self, const Region<R>& where, Fn& fn) {
    iterate_pencils(where, self.storage_loops(),
                    [&](Idx<R> i, Rank inner, Coord, Coord n) {
                      auto* p = &self(i);  // contiguous along `inner`
                      for (Coord k = 0; k < n; ++k, ++i.v[inner])
                        fn(std::as_const(i), p[k]);
                    });
  }

  void compute_strides() {
    if (order_ == StorageOrder::kRowMajor) {
      stride_[R - 1] = 1;
      for (Rank d = R - 1; d-- > 0;) stride_[d] = stride_[d + 1] * extent_[d + 1];
    } else {
      stride_[0] = 1;
      for (Rank d = 1; d < R; ++d) stride_[d] = stride_[d - 1] * extent_[d - 1];
    }
  }

  std::string name_;
  Region<R> region_;
  StorageOrder order_;
  std::array<Coord, R> extent_{};
  std::array<Coord, R> stride_{};
  Storage data_;
};

/// Max |difference| between two same-region arrays; convergence checks and
/// executor-equivalence tests.
template <typename T, Rank R>
T max_abs_difference(const DenseArray<T, R>& a, const DenseArray<T, R>& b) {
  require(a.region() == b.region(), "arrays must cover the same region");
  // A strict max from T{} does not depend on visit order: storage order.
  T m = T{};
  iterate_pencils(a.region(), a.storage_loops(),
                  [&](const Idx<R>& i, Rank inner, Coord, Coord n) {
                    const T* pa = &a(i);
                    const T* pb = &b(i);
                    const Coord sb = b.stride(inner);
                    for (Coord k = 0; k < n; ++k) {
                      const T x = pa[k], y = pb[k * sb];
                      const T d = x < y ? y - x : x - y;
                      if (d > m) m = d;
                    }
                  });
  return m;
}

}  // namespace wavepipe
