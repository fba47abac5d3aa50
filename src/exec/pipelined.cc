// The naive and pipelined wavefront executors (run_naive, run_pipelined,
// run_wavefront) are header-only (pipelined.hh); this unit compiles the
// header on its own.
#include "exec/pipelined.hh"

namespace wavepipe {
// No out-of-line definitions; see pipelined.hh.
}  // namespace wavepipe
