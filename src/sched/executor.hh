// Dependence-counting execution of a TaskGraph on one rank.
//
// The executor keeps a dependence count per task. When a task's count hits
// zero it is *released*: its inflow irecv (if any) is posted — posting is
// free under the virtual-time rules and release order preserves per-tag
// FIFO because same-tag tasks are chained by edges — and the task joins
// either the ready set (no inflow) or the pending set (inflow posted).
// The main loop repeatedly picks a task by the configured priority policy
// and runs it. Outflow sends issued by task bodies are nonblocking and
// settled in posting order after the graph drains, so the send engine
// drains under later tiles; a body that asks to settle a send
// (TaskContext::send's `settle`) has it settled before the send returns.
//
// Two kinds of policy:
//
//   * kStatic: task-id order, ignoring physical arrival; each inflow is
//     received blocking, in declaration order, when its task is picked.
//     This is the paper's pipelined schedule (receive the face, compute
//     the tile, send) as an arrival-blind order per rank, and the entire
//     RunResult — vtimes, phases, stats, traces — is a pure function of
//     the graph: byte-identical under every fiber schedule and fault
//     plan. It is deadlock-free whenever tasks are constructed in
//     sequential-program order, as the lowering helpers do. SPMD backend
//     only. run_wavefront is lower_wavefront run under this policy.
//
//   * kFifo, kDiagonal, kCriticalPath (adaptive): pending tasks whose
//     inflows have arrived (test()) are promoted into the ready set, and
//     the policy's key picks among everything runnable; only when nothing
//     is runnable does the rank block in wait_any over every posted
//     inflow. This is the dataflow behaviour — the rank never stalls
//     while any tile can run. It is probe-class: *results* are
//     byte-identical under any schedule or fault plan (payloads and
//     reduction order are fixed by the graph), but virtual times may
//     legitimately differ under chaos because the pick order observes
//     physical arrival.
//
// Either way the computed data is bit-identical to sequential execution,
// because payload bytes are FIFO per (src, tag) and every
// order-sensitive reduction is serialized by explicit edges.
//
// Deadlock reporting: before every blocking wait the executor publishes
// the stuck task's label as the rank's wait context, so the fiber engine's
// all-blocked report reads "rank 1 [irecv(src=0, tag=804)] in task
// 'v[i0][5]'"; if instead the poison reaches this rank's wait first, the
// unwind rethrows SchedError naming the same task(s).
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sched/graph.hh"

namespace wavepipe {

class Communicator;
class Request;
enum class EngineKind;

/// How the ready set is ordered.
enum class SchedPolicy {
  kStatic,        // task-id order, inflows received blocking: schedule-blind
  kFifo,          // adaptive, insertion order (task id) first
  kDiagonal,      // adaptive, smallest wavefront-diagonal key first
  kCriticalPath,  // adaptive, longest remaining cost-weighted path first
                  // (default)
};

const char* to_string(SchedPolicy p);

/// Which executor runs the graph.
enum class SchedBackend {
  /// One rank, one thread: the rank's own thread walks its graph (works
  /// under every engine; the fiber engine is the determinism oracle).
  kSpmd,
  /// Work-stealing task pool (sched/parallel_executor): ready tasks — not
  /// ranks — map onto the parallel engine's worker threads, so an idle
  /// worker whose rank's wavefront stalled steals another rank's runnable
  /// tile. Requires WAVEPIPE_ENGINE=parallel and an adaptive policy;
  /// produces byte-identical values to the SPMD backend — wall_seconds
  /// is where the difference shows.
  kTasks,
};

const char* to_string(SchedBackend b);

struct SchedOptions {
  SchedPolicy policy = SchedPolicy::kCriticalPath;
  /// Executor backend (see SchedBackend). kTasks needs the parallel
  /// engine and an adaptive policy: run_graph throws a typed ConfigError —
  /// never a silent SPMD fallback — for any other combination.
  SchedBackend backend = SchedBackend::kSpmd;

  /// WAVEPIPE_SCHED_POLICY=static|fifo|diagonal|critical selects the
  /// policy; WAVEPIPE_SCHED_BACKEND=spmd|tasks selects the executor
  /// backend (tasks additionally cross-validates against the policy and
  /// an explicit non-parallel WAVEPIPE_ENGINE — either conflict is a
  /// ConfigError here, before any machine exists). (Distinct from
  /// WAVEPIPE_SCHED, which seeds the *fiber* scheduler.) Unparseable
  /// values throw ConfigError.
  static SchedOptions from_env();
};

struct SchedReport {
  std::size_t tasks = 0;
  std::size_t edges = 0;
  SchedPolicy policy = SchedPolicy::kCriticalPath;
  /// Times the policy ran an arrived task while an earlier-priority task
  /// was still pending — the overlap the dataflow scheduler recovered.
  std::size_t overtakes = 0;
  /// Blocking waits (ready set empty, or kStatic inflow waits).
  std::size_t blocked_waits = 0;
  /// High-water mark of simultaneously posted inflow irecvs.
  std::size_t max_posted = 0;
  /// The backend that actually executed the graph.
  SchedBackend backend = SchedBackend::kSpmd;
  /// Tasks backend only: how many of this rank's tasks ran on another
  /// rank's worker thread — the cross-rank overlap SPMD cannot express.
  std::size_t steals = 0;
};

/// Runs the graph to completion on this rank. Collective only through the
/// tasks' own sends/receives: ranks whose graphs exchange messages must all
/// call run_graph with matching endpoints. Throws SchedError on a
/// dependence cycle, and converts an engine-detected communication deadlock
/// into a SchedError naming the task(s) that were stuck.
SchedReport run_graph(const TaskGraph& graph, Communicator& comm,
                      const SchedOptions& opts = SchedOptions::from_env());

namespace sched_internal {

/// Shared pre-execution analysis, used by both backends so they agree on
/// cycle rejection and priorities to the bit.
struct GraphAnalysis {
  /// Initial dependence (incoming-edge) count per task.
  std::vector<int> deps;
  /// Critical-path priorities (cost-weighted longest path to a sink);
  /// empty unless the policy is kCriticalPath.
  std::vector<double> prio;
};

/// Kahn topological pass: throws SchedError on a cycle (naming a task on
/// it) and fills priorities when the policy needs them.
GraphAnalysis analyze_graph(const TaskGraph& graph, SchedPolicy policy);

/// The authoritative backend gate, shared by run_graph and
/// run_recoverable: throws ConfigError naming the valid combinations
/// unless `opts` can run on a machine of engine `engine`.
void check_backend(const SchedOptions& opts, EngineKind engine);

/// Every sink's TaskSink::task_send: issues the send on `comm` and settles
/// it at once when `settle`, else keeps its request in `sends` for the
/// end-of-graph drain.
void issue_send(Communicator& comm, std::vector<Request>& sends, int dst,
                std::span<const double> payload, int tag, bool settle);

/// "task '<label>' (inflow src=S tag=T, ...)": how every deadlock report
/// names a stuck task.
std::string describe_stuck_task(const TaskGraph& graph, TaskId t);

/// The policy's total order: smaller key runs first, ties break toward the
/// smaller (earlier) task id.
std::pair<double, TaskId> task_key(const TaskGraph& graph,
                                   const GraphAnalysis& analysis,
                                   SchedPolicy policy, TaskId t);

}  // namespace sched_internal

}  // namespace wavepipe
