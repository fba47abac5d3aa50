#include "comm/trace.hh"

#include <cstdlib>
#include <fstream>
#include <ostream>

#include "comm/machine.hh"

namespace wavepipe {

const char* to_string(TraceEventType t) {
  switch (t) {
    case TraceEventType::kCompute: return "compute";
    case TraceEventType::kSend: return "send";
    case TraceEventType::kRecvWait: return "recv-wait";
    case TraceEventType::kRecvComplete: return "recv";
    case TraceEventType::kCollective: return "collective";
    case TraceEventType::kStatement: return "statement";
    case TraceEventType::kSendPost: return "send-post";
    case TraceEventType::kSendWait: return "send-wait";
    case TraceEventType::kSendComplete: return "send-complete";
    case TraceEventType::kRecvPost: return "recv-post";
    case TraceEventType::kTask: return "task";
  }
  return "?";
}

TraceConfig TraceConfig::from_env() {
  TraceConfig cfg;
  if (const char* v = std::getenv("WAVEPIPE_TRACE")) {
    const std::string s(v);
    cfg.enabled = !(s.empty() || s == "0" || s == "false" || s == "no");
  }
  if (const char* v = std::getenv("WAVEPIPE_TRACE_CAPACITY")) {
    const long long n = std::atoll(v);
    if (n > 0) cfg.capacity = static_cast<std::size_t>(n);
  }
  if (const char* v = std::getenv("WAVEPIPE_TRACE_FILE")) {
    cfg.file = v;
    if (!cfg.file.empty()) cfg.enabled = true;
  }
  return cfg;
}

void Tracer::push(const TraceEvent& e) {
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[next_] = e;
    next_ = (next_ + 1) % capacity_;
  }
  ++recorded_;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // next_ is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  return out;
}

namespace {

// JSON string output needs no escaping: every name this file emits is a
// fixed identifier.
void write_event(std::ostream& os, int rank, const TraceEvent& e,
                 bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":\"" << to_string(e.type) << "\",\"cat\":\"vtime\","
     << "\"pid\":0,\"tid\":" << rank << ",\"ts\":" << e.t0;
  if (e.t1 > e.t0) {
    os << ",\"ph\":\"X\",\"dur\":" << (e.t1 - e.t0);
  } else {
    os << ",\"ph\":\"i\",\"s\":\"t\"";
  }
  os << ",\"args\":{\"elements\":" << e.elements;
  if (e.peer >= 0) os << ",\"peer\":" << e.peer;
  os << ",\"tag\":" << e.tag << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<RankTrace>& traces) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
     << "\"args\":{\"name\":\"wavepipe virtual time\"}}";
  bool first = false;
  for (const auto& t : traces) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << t.rank << ",\"args\":{\"name\":\"rank " << t.rank << "\"}}";
    for (const auto& e : t.events) write_event(os, t.rank, e, first);
  }
  os << "\n]}\n";
}

void write_chrome_trace(std::ostream& os, const RunResult& result) {
  write_chrome_trace(os, result.traces);
}

bool write_chrome_trace_file(const std::string& path,
                             const RunResult& result) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os, result);
  return os.good();
}

}  // namespace wavepipe
