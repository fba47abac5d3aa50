// Rank-R processor grids.
//
// A ProcGrid<R> arranges p ranks into an R-dimensional mesh; dims with 1
// processor are undistributed. Grid coordinates map to machine ranks in
// row-major order. The paper's experiments distribute either the wavefront
// dimension alone (Fig 5, Fig 7: "all arrays are distributed entirely
// across the dimension along which the wavefront travels") or a 2-D mesh
// (Fig 4's 2x2 illustration); both are instances of this type.
#pragma once

#include <array>
#include <numeric>
#include <string>
#include <vector>

#include "index/index.hh"
#include "support/error.hh"

namespace wavepipe {

/// Chooses a near-square factorization of `p` over `ndims` dimensions,
/// largest factor first. factorize(12, 2) == {4, 3}.
std::vector<int> factorize_processors(int p, int ndims);

template <Rank R>
class ProcGrid {
 public:
  /// Grid with `dims[d]` processors along dimension d.
  explicit ProcGrid(const std::array<int, R>& dims) : dims_(dims) {
    for (Rank d = 0; d < R; ++d)
      require(dims_[d] >= 1, "processor grid dims must be >= 1");
  }

  /// Brace-friendly form: ProcGrid<2>({4, 2}).
  ProcGrid(std::initializer_list<int> dims) {
    require(dims.size() == R, "processor grid needs exactly R dimensions");
    Rank d = 0;
    for (int x : dims) dims_[d++] = x;
    for (Rank k = 0; k < R; ++k)
      require(dims_[k] >= 1, "processor grid dims must be >= 1");
  }

  /// All p processors along dimension `dim` (the paper's Fig 5/7 setup).
  static ProcGrid along_dim(int p, Rank dim) {
    std::array<int, R> dims;
    dims.fill(1);
    dims[dim] = p;
    return ProcGrid(dims);
  }

  /// Near-square factorization of p over the dims listed in `distributed`.
  /// Every listed dimension must actually end up distributed (factor > 1):
  /// a prime p over two dimensions, more dimensions than p has prime
  /// factors, or p == 1 would all silently degenerate to a lower-rank grid
  /// than the caller asked for, so they throw ConfigError instead. Use
  /// along_dim (or list fewer dimensions) for deliberately 1D layouts.
  static ProcGrid factored(int p, const std::vector<Rank>& distributed) {
    if (distributed.empty())
      throw ConfigError("ProcGrid::factored needs at least one dimension "
                        "to distribute (got an empty list)");
    std::array<int, R> dims;
    dims.fill(1);
    for (std::size_t i = 0; i < distributed.size(); ++i) {
      const Rank d = distributed[i];
      if (d >= R)
        throw ConfigError("ProcGrid::factored: dimension " +
                          std::to_string(d) + " is outside a rank-" +
                          std::to_string(R) + " grid");
      if (dims[d] != 1)
        throw ConfigError("ProcGrid::factored: dimension " +
                          std::to_string(d) + " is listed twice");
      dims[d] = 0;  // marks "requested" until the factor lands below
    }
    const auto f =
        factorize_processors(p, static_cast<int>(distributed.size()));
    for (std::size_t i = 0; i < distributed.size(); ++i) {
      if (f[i] <= 1)
        throw ConfigError(
            "ProcGrid::factored: " + std::to_string(p) + " processors "
            "cannot be spread over " + std::to_string(distributed.size()) +
            " dimensions without a degenerate axis (dimension " +
            std::to_string(distributed[i]) + " would get 1 processor); "
            "choose a p with enough prime factors or distribute fewer "
            "dimensions");
      dims[distributed[i]] = f[i];
    }
    return ProcGrid(dims);
  }

  int dim(Rank d) const { return dims_[d]; }
  const std::array<int, R>& dims() const { return dims_; }

  int size() const {
    int p = 1;
    for (Rank d = 0; d < R; ++d) p *= dims_[d];
    return p;
  }

  bool distributed(Rank d) const { return dims_[d] > 1; }

  /// Grid coordinates of a machine rank (row-major decode).
  std::array<int, R> coords(int rank) const {
    require(rank >= 0 && rank < size(), "rank outside processor grid");
    std::array<int, R> c{};
    for (Rank d = R; d-- > 0;) {
      c[d] = rank % dims_[d];
      rank /= dims_[d];
    }
    return c;
  }

  /// Machine rank of grid coordinates (row-major encode).
  int rank_of(const std::array<int, R>& c) const {
    int r = 0;
    for (Rank d = 0; d < R; ++d) {
      require(c[d] >= 0 && c[d] < dims_[d], "grid coordinate out of range");
      r = r * dims_[d] + c[d];
    }
    return r;
  }

  /// Rank of the neighbor of `rank` displaced by `delta` along dimension
  /// `d`, or -1 if it falls off the grid.
  int neighbor(int rank, Rank d, int delta) const {
    auto c = coords(rank);
    c[d] += delta;
    if (c[d] < 0 || c[d] >= dims_[d]) return -1;
    return rank_of(c);
  }

  std::string describe() const {
    std::string s;
    for (Rank d = 0; d < R; ++d)
      s += (d ? "x" : "") + std::to_string(dims_[d]);
    return s;
  }

 private:
  std::array<int, R> dims_;
};

}  // namespace wavepipe
