// ScanBlock: the paper's new compound statement.
//
// Statements added to a scan block may use the prime operator to reference
// values written by *any* statement of the block in earlier iterations of
// the implementing loop nest. compile() performs the static checks the
// paper lists (§2.2, "Legality"):
//
//   (i)   primed arrays must also be defined in the block;
//   (ii)  the primed directions may not over-constrain the wavefront;
//   (iii) all statements have the same rank       — enforced by the type;
//   (iv)  all statements share one covering region — enforced by
//         construction (the block carries the region);
//   (v)   parallel operators other than shift may not be primed — enforced
//         by construction (the expression language only builds shift
//         references).
//
// plus two conditions the paper leaves implicit: a primed reference must
// carry a nonzero direction, and the derived loop structure must exist.
#pragma once

#include <set>

#include "lang/plan.hh"

namespace wavepipe {

template <Rank R>
class ScanBlock {
 public:
  explicit ScanBlock(const Region<R>& region,
                     WavefrontChoice choice = WavefrontChoice::kLeftmost)
      : region_(region), choice_(choice) {
    require(!region.empty(), "scan block needs a non-empty region");
  }

  /// Adds a statement (in program order, which is preserved).
  ScanBlock& add(Statement<R> st) {
    statements_.push_back(std::move(st));
    return *this;
  }

  /// Adds a typed statement spec (`lhs <<= expr`).
  template <typename E>
  ScanBlock& add(const StatementSpec<E>& spec) {
    static_assert(E::rank == R, "statement rank must match the block");
    return add(to_statement(spec));
  }

  /// Installs the fused per-index evaluator (set by the scan(...) builder).
  void set_fused_pencil(
      std::function<void(Idx<R>, Rank, Coord, Coord)> fused) {
    fused_pencil_ = std::move(fused);
  }

  /// Installs the fused lane kernel (set by the scan(...) builder).
  void set_fused_lanes(
      std::function<void(Idx<R>, Rank, Coord, Coord, Rank, Coord)> lanes) {
    fused_lanes_ = std::move(lanes);
  }

  std::size_t size() const { return statements_.size(); }
  const Region<R>& region() const { return region_; }

  /// Runs the compilation pipeline and returns the executable plan.
  /// Throws LegalityError when a static check fails.
  WavefrontPlan<R> compile() const {
    require(!statements_.empty(), "scan block has no statements");

    WavefrontPlan<R> plan;
    plan.region = region_;
    plan.statements = statements_;
    plan.fused_pencil = fused_pencil_;

    // Which arrays are defined (written) in the block.
    std::set<const void*> written;
    for (const auto& st : statements_) written.insert(st.lhs->id());

    // Collect primed directions and execute-before constraints.
    std::vector<Direction<R>> primed_dirs;
    for (const auto& st : statements_) {
      for (const auto& acc : st.reads) {
        if (acc.primed) {
          if (written.count(acc.array->id()) == 0) {
            throw LegalityError("primed array '" + acc.array->name() +
                                "' is not defined in the scan block "
                                "(legality condition i)");
          }
          if (acc.dir.is_zero()) {
            throw LegalityError(
                "primed reference to '" + acc.array->name() +
                "' has a zero direction; prime references values from "
                "earlier iterations, so the direction must be nonzero");
          }
          primed_dirs.push_back(acc.dir);
          plan.constraints.push_back(execute_before_vector(acc.dir, true));
        } else if (!acc.dir.is_zero() && written.count(acc.array->id()) > 0) {
          plan.constraints.push_back(execute_before_vector(acc.dir, false));
        }
      }
    }

    // Wavefront summary vector and dimension roles.
    plan.wsv = wavefront_summary<R>(primed_dirs);
    auto analysis = analyze_wsv<R>(plan.wsv, choice_);
    if (!analysis) {
      throw LegalityError(
          "scan block is over-constrained: wavefront summary vector " +
          to_string(plan.wsv) +
          " admits no wavefront dimension (legality condition ii)");
    }
    plan.analysis = *analysis;

    // Loop structure from the unconstrained distance vectors, preferring
    // the storage-contiguous dimension innermost and forcing the loop along
    // the wavefront dimension to follow the travel direction.
    const Rank preferred_inner =
        contiguous_dim(statements_.front().lhs->order(), R);
    std::optional<LoopStructure<R>> loops;
    if (plan.has_wavefront()) {
      loops = derive_loop_structure<R>(plan.constraints, preferred_inner,
                                       plan.wdim(), plan.travel());
      if (!loops) {
        // The dependences may still admit a (non-pipelinable) loop nest
        // whose direction along the wavefront dimension disagrees with the
        // travel direction; accept it but demote the plan to serial.
        loops = derive_loop_structure<R>(plan.constraints, preferred_inner);
        if (loops) {
          plan.analysis.wavefront_dim.reset();
          plan.analysis.travel = 0;
        }
      }
    } else {
      loops = derive_loop_structure<R>(plan.constraints, preferred_inner);
    }
    if (!loops) {
      throw LegalityError(
          "scan block is over-constrained: no loop nest respects the "
          "dependences of the primed references (legality condition ii)");
    }
    plan.loops = *loops;
    if (fused_pencil_ && fused_lanes_) {
      plan.fused_lanes = fused_lanes_;
      plan.lane_dim = lane_dimension(plan.loops, written);
    }

    // Halo widths and inflow sizing.
    build_array_uses(plan);
    if (plan.has_wavefront()) {
      const Rank w = plan.wdim();
      for (const auto& d : primed_dirs) {
        plan.inflow_depth = std::max<Coord>(plan.inflow_depth,
                                            d.v[w] < 0 ? -d.v[w] : d.v[w]);
        for (Rank k = 0; k < R; ++k) {
          if (k == w) continue;
          plan.lateral_halo = std::max<Coord>(plan.lateral_halo,
                                              d.v[k] < 0 ? -d.v[k] : d.v[k]);
        }
      }
      // Per-array wave-face depth: max |d_w| over primed reads of it.
      for (const auto& st : statements_) {
        for (const auto& acc : st.reads) {
          if (!acc.primed) continue;
          const Coord mag = acc.dir.v[w] < 0 ? -acc.dir.v[w] : acc.dir.v[w];
          for (auto& u : plan.arrays) {
            if (u.array->id() == acc.array->id())
              u.wave_depth = std::max(u.wave_depth, mag);
          }
        }
      }
    }
    return plan;
  }

 private:
  /// The dimension whose slices the lane kernel may run side by side, if
  /// any. No read of a written array may be shifted along it, primed or
  /// not: then no slice reads what another writes, and the slices may run
  /// in any interleaving. It must not be the pencil's inner dimension, and
  /// some primed read must be shifted along that one: lanes hide the
  /// latency of a recurrence along the pencil, and without one a single
  /// pencil already streams. The innermost loop level that qualifies wins.
  std::optional<Rank> lane_dimension(
      const LoopStructure<R>& loops,
      const std::set<const void*>& written) const {
    std::array<bool, R> shifted{};  // a written array is read shifted along d
    bool recurrent = false;         // a primed read shifts along the pencil
    const Rank inner = loops.order[R - 1];
    for (const auto& st : statements_) {
      for (const auto& acc : st.reads) {
        recurrent = recurrent || (acc.primed && acc.dir.v[inner] != 0);
        if (written.count(acc.array->id()) == 0) continue;
        for (Rank d = 0; d < R; ++d)
          shifted[d] = shifted[d] || acc.dir.v[d] != 0;
      }
    }
    if (!recurrent) return std::nullopt;
    for (Rank level = R - 1; level-- > 0;)
      if (!shifted[loops.order[level]]) return loops.order[level];
    return std::nullopt;
  }

  void build_array_uses(WavefrontPlan<R>& plan) const {
    auto find_or_add = [&plan](DenseArray<Real, R>* a) -> ArrayUse<R>& {
      for (auto& u : plan.arrays)
        if (u.array->id() == a->id()) return u;
      plan.arrays.push_back(ArrayUse<R>{a, false, false, {}});
      return plan.arrays.back();
    };
    for (const auto& st : statements_) {
      find_or_add(st.lhs).written = true;
      for (const auto& acc : st.reads) {
        ArrayUse<R>& use = find_or_add(acc.array);
        use.primed_read = use.primed_read || acc.primed;
        for (Rank d = 0; d < R; ++d) {
          const Coord mag = acc.dir.v[d] < 0 ? -acc.dir.v[d] : acc.dir.v[d];
          use.halo.v[d] = std::max(use.halo.v[d], mag);
          if (acc.primed)
            use.prime_halo.v[d] = std::max(use.prime_halo.v[d], mag);
        }
      }
    }
  }

  Region<R> region_;
  WavefrontChoice choice_;
  std::vector<Statement<R>> statements_;
  std::function<void(Idx<R>, Rank, Coord, Coord)> fused_pencil_;
  std::function<void(Idx<R>, Rank, Coord, Coord, Rank, Coord)> fused_lanes_;
};

/// scan() with an explicit wavefront-dimension choice policy.
template <Rank R, typename... Es>
ScanBlock<R> scan_with_choice(const Region<R>& region, WavefrontChoice choice,
                              const StatementSpec<Es>&... specs) {
  static_assert(sizeof...(Es) > 0, "scan() needs at least one statement");
  static_assert(((Es::rank == R) && ...), "statement ranks must match");
  ScanBlock<R> sb(region, choice);
  (sb.add(specs), ...);
  // A pencil along a dimension some primed read shifts in is a recurrence:
  // forwarding same-index values through registers shortens it.
  std::vector<Access<R>> reads;
  (specs.expr.collect(reads), ...);
  std::array<bool, R> recurrent{};
  for (const Access<R>& acc : reads)
    for (Rank d = 0; d < R; ++d)
      recurrent[d] = recurrent[d] || (acc.primed && acc.dir.v[d] != 0);
  sb.set_fused_pencil([specs..., recurrent](Idx<R> i, Rank inner, Coord step,
                                            Coord count) {
    if (recurrent[inner])
      run_pencil_forwarding(count, specs.bind(i, inner, step)...);
    else
      run_pencil(count, specs.bind(i, inner, step)...);
  });
  // The same statements over kLanes pencils at once, for plans that
  // compile() gives a lane dimension.
  sb.set_fused_lanes([specs...](Idx<R> i, Rank inner, Coord step, Coord count,
                                Rank lane_dim, Coord spacing) {
    run_pencil_lanes<kLanes>(
        count, specs.bind(i, inner, step, lane_dim, spacing)...);
  });
  return sb;
}

/// Builds a scan block from typed statement specs and installs the fused
/// per-index evaluator — the preferred way to write a block:
///
///   auto sb = scan(Rn, r <<= aa * prime(d, north),
///                      d <<= 1.0 / (dd - at(aa, north) * r));
template <Rank R, typename... Es>
ScanBlock<R> scan(const Region<R>& region, const StatementSpec<Es>&... specs) {
  return scan_with_choice(region, WavefrontChoice::kLeftmost, specs...);
}

/// Convenience for the tests and the programmer-reasoning examples of the
/// paper (§2.2, Examples 1-4): checks whether a set of primed directions is
/// legal and, if so, what the WSV and roles are — without building arrays
/// or statements.
template <Rank R>
struct WavefrontCheck {
  bool legal = false;
  std::string reason;
  Wsv<R> wsv{};
  WsvAnalysis<R> analysis{};
  LoopStructure<R> loops{};
};

template <Rank R>
WavefrontCheck<R> check_wavefront(
    const std::vector<Direction<R>>& primed_dirs,
    WavefrontChoice choice = WavefrontChoice::kLeftmost) {
  WavefrontCheck<R> out;
  out.wsv = wavefront_summary<R>(primed_dirs);
  auto analysis = analyze_wsv<R>(out.wsv, choice);
  if (!analysis) {
    out.reason = "WSV " + to_string(out.wsv) + " admits no wavefront";
    return out;
  }
  out.analysis = *analysis;
  std::vector<Udv<R>> constraints;
  for (const auto& d : primed_dirs) {
    if (d.is_zero()) {
      out.reason = "primed direction must be nonzero";
      return out;
    }
    constraints.push_back(execute_before_vector(d, true));
  }
  auto loops = derive_loop_structure<R>(constraints, R - 1);
  if (!loops) {
    out.reason = "no loop nest respects the dependences";
    return out;
  }
  out.loops = *loops;
  out.legal = true;
  return out;
}

}  // namespace wavepipe
