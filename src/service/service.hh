// SweepService: the Machine as a shared, multi-tenant resource.
//
// Clients submit() jobs (any suite app at (n, p, b, policy); b optional —
// unset means the model's b*) and wait() on ids. The service owns one
// Machine whose rank pool every job shares: an admission round packs
// queued jobs onto disjoint contiguous rank windows (FIFO with backfill),
// leases each job a private user-tag window from a recycling TagAllocator,
// and runs the whole round as one Machine::run in which each admitted
// job's ranks enter a job view (comm/communicator.hh) and execute the
// app's SPMD body unmodified. Disjoint windows and disjoint tag leases
// make cross-job (src, tag) collisions impossible, and because virtual
// time depends only on program order and message sizes — never on machine
// rank ids or tag values — a job's per-rank results are byte-identical to
// the same job run standalone on its own p-rank machine (a tested
// invariant). Plans are cached by (app, n, p, b, iters, policy), so
// repeat submissions skip lowering; every completed job carries a bill.
// See DESIGN.md §17.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/suite.hh"
#include "comm/machine.hh"
#include "sched/tags.hh"
#include "service/job.hh"
#include "service/plan_cache.hh"

namespace wavepipe {

struct ServiceConfig {
  /// Size of the shared rank pool.
  int ranks = 8;
  /// Cost model every job runs under (jobs share the machine, so they
  /// share its costs; b* resolution reads alpha/beta from here).
  CostModel costs{};
  EngineConfig engine = EngineConfig::from_env();
  /// User tags leased to each job. Must cover the highest tag any app
  /// uses (suite apps stay below 1024; the default leaves headroom).
  int job_tag_span = 1 << 14;
  /// submit() beyond this many queued jobs is refused (open-loop arrival
  /// protection).
  std::size_t max_queue = 1024;
  /// Plan-cache entries kept (LRU).
  std::size_t cache_capacity = 64;

  /// Environment overrides: WAVEPIPE_SERVICE_RANKS (pool size) and
  /// WAVEPIPE_SERVICE_TAG_SPAN (per-job tag lease). Unparseable values
  /// throw ConfigError.
  static ServiceConfig from_env();
};

class SweepService {
 public:
  explicit SweepService(ServiceConfig cfg = {});

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Validates and plans the job (from the cache when possible) and
  /// enqueues it. Throws ServiceError for unknown apps, p outside
  /// [1, ranks], or a full queue. Does not run anything.
  JobId submit(const JobParams& params);

  /// Runs admission rounds until `id` completes, then returns its result.
  /// Throws ServiceError for unknown ids and for jobs whose round failed.
  const JobResult& wait(JobId id);

  /// Runs rounds until the queue is empty; returns the ids completed.
  std::vector<JobId> drain();

  /// True once `id` has a result (possibly a failed one).
  bool done(JobId id) const { return results_.count(id) != 0; }

  /// The completed job's result; same errors as wait().
  const JobResult& result(JobId id) const;

  /// Drops the result of completed job `id` (a failed one too), so a
  /// long-lived client need not keep every result it has collected; the
  /// id is unknown afterwards, and references wait() or result() returned
  /// for it dangle. Throws ServiceError for unknown ids and for jobs still
  /// queued.
  void forget(JobId id);

  std::size_t queued() const { return queue_.size(); }
  /// Results held: completed jobs not yet forgotten.
  std::size_t completed() const { return results_.size(); }
  int rounds() const { return rounds_; }
  std::uint64_t cache_hits() const { return cache_.hits(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }
  const ServiceConfig& config() const { return cfg_; }

  /// The shared machine (tests reach through it).
  Machine& machine() { return *machine_; }

  /// The tag allocator's live/free map — the billing log's view of tag
  /// space (deterministic; see TagAllocator::describe).
  std::string describe_tags() const { return tags_.describe(); }

  /// Apps this service can run: the wavefront suite plus "alt-sweep".
  const std::vector<SuiteApp>& registry() const { return apps_; }

 private:
  struct Pending {
    JobId id = 0;
    JobParams params;  // n/iters resolved to concrete values
    std::shared_ptr<const JobPlan> plan;
    bool cache_hit = false;
    double submit_seconds = 0.0;
  };

  struct Placement {
    Pending job;
    int base = 0;
    TagRange tags;
  };

  const SuiteApp& find_app(const std::string& name) const;
  bool is_queued(JobId id) const;

  /// Admits a maximal prefix-with-backfill of the queue onto disjoint rank
  /// windows and runs it as one Machine::run. Fills results_.
  void run_round();

  ServiceConfig cfg_;
  std::unique_ptr<Machine> machine_;
  std::vector<SuiteApp> apps_;
  TagAllocator tags_;
  PlanCache cache_;
  std::deque<Pending> queue_;
  std::unordered_map<JobId, JobResult> results_;
  JobId next_id_ = 1;
  int rounds_ = 0;
};

}  // namespace wavepipe
