// DistArray: a rank's slice of a block-distributed global array.
//
// Each SPMD rank constructs the DistArrays it participates in; the local
// DenseArray covers the rank's owned region expanded by the layout's fluff
// widths, addressed in global coordinates, so statement code is identical
// on 1 or 64 ranks.
#pragma once

#include <string>
#include <utility>

#include "array/dense.hh"
#include "dist/layout.hh"

namespace wavepipe {

template <typename T, Rank R>
class DistArray {
 public:
  DistArray(std::string name, const Layout<R>& layout, int rank,
            StorageOrder order = StorageOrder::kColMajor, T init = T{})
      : layout_(layout),
        rank_(rank),
        owned_(layout.owned(rank)),
        local_(std::move(name), layout.allocated(rank), order, init) {}

  /// The local storage built for overwrite (DenseArray's kForOverwrite
  /// constructor): the caller writes every allocated cell, fluff included.
  DistArray(std::string name, const Layout<R>& layout, int rank,
            StorageOrder order, ForOverwrite tag)
      : layout_(layout),
        rank_(rank),
        owned_(layout.owned(rank)),
        local_(std::move(name), layout.allocated(rank), order, tag) {}

  const Layout<R>& layout() const { return layout_; }
  int rank() const { return rank_; }

  /// The sub-region this rank owns (no fluff).
  const Region<R>& owned() const { return owned_; }

  /// The local storage (owned region plus fluff), global-indexed.
  DenseArray<T, R>& local() { return local_; }
  const DenseArray<T, R>& local() const { return local_; }

  const std::string& name() const { return local_.name(); }

  /// Element access by global index (must fall inside the allocated
  /// region, i.e. owned or fluff).
  T& operator()(const Idx<R>& i) { return local_(i); }
  const T& operator()(const Idx<R>& i) const { return local_(i); }

  /// Fills the *owned* region from a function of the global index (fluff is
  /// left untouched; use ghost exchange or boundary fills for that).
  template <typename Fn>
  void fill_owned(Fn&& fn) {
    local_.for_each_element(owned_,
                            [&](const Idx<R>& i, T& x) { x = fn(i); });
  }

  /// Fills any allocated cells lying outside the global region (physical
  /// boundary fluff) from a function; interior fluff is skipped.
  template <typename Fn>
  void fill_exterior(Fn&& fn) {
    const Region<R> global = layout_.global();
    local_.for_each_element(local_.region(), [&](const Idx<R>& i, T& x) {
      if (!global.contains(i)) x = fn(i);
    });
  }

 private:
  Layout<R> layout_;
  int rank_;
  Region<R> owned_;
  DenseArray<T, R> local_;
};

}  // namespace wavepipe
