// Per-rank event tracing and virtual-time phase accounting.
//
// The paper's analysis (§4, Eq 1) decomposes pipelined execution into
// T_comp and T_comm terms; this layer makes the same decomposition
// observable on any run. The Communicator accumulates a PhaseBreakdown
// (t_comp + t_comm + t_wait == vtime by construction) and, when tracing is
// enabled, records typed events with virtual-time intervals into a
// fixed-capacity ring buffer. Because intervals carry deterministic
// virtual-time stamps, traces are bit-stable across runs and can be
// asserted in tests.
//
// Tracing is opt-in (TraceConfig, or the WAVEPIPE_TRACE env var) and costs
// one predictable branch per event when disabled; the phase accounting is
// three double-adds on paths that already touch the clock and is always on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace wavepipe {

enum class TraceEventType : std::uint8_t {
  kCompute,       // a compute() charge: interval of local work
  kSend,          // a message send: interval the sender's clock absorbed
  kRecvWait,      // a recv that stalled: interval from call to arrival
  kRecvComplete,  // instant: a message was matched and unpacked
  kCollective,    // a whole collective (barrier/reduce/broadcast/gather)
  kStatement,     // one distributed array statement (exchange + apply)
  kSendPost,      // instant: an isend was posted (occupy_sender: no charge)
  kSendWait,      // a wait on a send request that stalled for the NIC
  kSendComplete,  // instant: a send request was completed by wait/test
  kRecvPost,      // instant: an irecv was posted (never advances the clock)
  kTask,          // one scheduler task, e.g. a wavefront tile (recv +
                  // compute + send; tag = task id, elements = cost)
};

/// Short stable name ("compute", "send", ...) used by exporters and tests.
const char* to_string(TraceEventType t);

/// One traced event: a [t0, t1] virtual-time interval (t0 == t1 for
/// instants) plus the peer rank / tag / element count where meaningful.
struct TraceEvent {
  TraceEventType type = TraceEventType::kCompute;
  std::int32_t peer = -1;       // other rank, or -1 when not applicable
  std::int32_t tag = 0;         // message tag, or task id for kTask
  std::uint64_t elements = 0;   // payload or tile size in elements
  double t0 = 0.0;
  double t1 = 0.0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Per-rank virtual-time decomposition. The three buckets partition every
/// clock advance a Communicator makes, so per rank
/// t_comp + t_comm + t_wait == vtime (exactly, up to fp associativity).
struct PhaseBreakdown {
  double t_comp = 0.0;  // compute() / advance_time() charges
  double t_comm = 0.0;  // sender-side message costs (alpha + beta*n)
  double t_wait = 0.0;  // recv stalls: clock jumps to a message's arrival

  double total() const { return t_comp + t_comm + t_wait; }

  friend bool operator==(const PhaseBreakdown&, const PhaseBreakdown&) =
      default;

  PhaseBreakdown& operator+=(const PhaseBreakdown& o) {
    t_comp += o.t_comp;
    t_comm += o.t_comm;
    t_wait += o.t_wait;
    return *this;
  }
};

struct TraceConfig {
  bool enabled = false;
  /// Ring capacity in events per rank; when full the oldest events are
  /// overwritten (the breakdown keeps counting regardless).
  std::size_t capacity = 1 << 16;
  /// When non-empty, Machine::run writes the Chrome trace here after each
  /// run completes (a process with several runs overwrites: last wins).
  std::string file;

  /// WAVEPIPE_TRACE=1 enables tracing; WAVEPIPE_TRACE_CAPACITY=N resizes
  /// the ring; WAVEPIPE_TRACE_FILE=PATH implies enabled and makes every
  /// run auto-export. Machines are constructed with this by default, so
  /// any run can be traced without touching code.
  static TraceConfig from_env();
};

/// Fixed-capacity per-rank event ring. Not thread-safe by design: each
/// rank's Communicator owns one and only that rank's thread touches it.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(const TraceConfig& cfg)
      : capacity_(cfg.capacity), enabled_(cfg.enabled && cfg.capacity > 0) {}

  bool enabled() const { return enabled_; }

  void record(TraceEventType type, double t0, double t1, int peer = -1,
              int tag = 0, std::uint64_t elements = 0) {
    if (!enabled_) return;  // the entire disabled-mode cost
    push({type, peer, tag, elements, t0, t1});
  }

  /// Events in recording order, oldest first (unwraps the ring).
  std::vector<TraceEvent> events() const;

  /// Total events recorded, including any overwritten ones.
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring wrap-around.
  std::uint64_t dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

 private:
  void push(const TraceEvent& e);

  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;  // overwrite position once the ring is full
  std::uint64_t recorded_ = 0;
  bool enabled_ = false;
};

/// One rank's harvested trace, as stored in RunResult.
struct RankTrace {
  int rank = 0;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

struct RunResult;

/// Writes traces in the Chrome trace-event JSON format (the "traceEvents"
/// array form): one thread track per rank, complete ("X") slices for
/// intervals, instant ("i") marks for zero-width events. Timestamps are
/// virtual time, written as microseconds so Perfetto / chrome://tracing
/// render them directly.
void write_chrome_trace(std::ostream& os, const std::vector<RankTrace>& traces);

/// Convenience overload over a finished run (uses result.traces).
void write_chrome_trace(std::ostream& os, const RunResult& result);

/// Writes the trace to `path`; returns false (after logging nothing) if the
/// file cannot be opened.
bool write_chrome_trace_file(const std::string& path, const RunResult& result);

}  // namespace wavepipe
