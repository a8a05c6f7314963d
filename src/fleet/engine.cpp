#include "fleet/engine.hpp"

#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>

namespace iris::fleet {

Fleet::Fleet(FleetParams params) : params_(std::move(params)) {
  if (params_.regions < 1) {
    throw std::invalid_argument("Fleet: regions must be >= 1");
  }
  shards_.reserve(static_cast<std::size_t>(params_.regions));
  for (int i = 0; i < params_.regions; ++i) {
    shards_.push_back(
        std::make_unique<RegionShard>(i, derive_region_config(params_, i)));
  }
  errors_.resize(shards_.size());
  done_ = std::make_unique<std::atomic<bool>[]>(shards_.size());
  supervisor_ = std::make_unique<FleetSupervisor>(*this);
}

Fleet::~Fleet() { join(); }

void Fleet::start() {
  if (started_) throw std::logic_error("Fleet::start: already started");
  started_ = true;
  threads_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    threads_.emplace_back([this, i] {
      // Nothing escapes a shard thread: an uncontained exception becomes a
      // structured per-shard error (shard_errors()), never std::terminate.
      try {
        shards_[i]->run();
      } catch (...) {
        errors_[i] = std::current_exception();
      }
      done_[i].store(true, std::memory_order_release);
    });
  }
}

void Fleet::wait_ready() const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    while (shards_[i]->store().published() == 0 &&
           !done_[i].load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

void Fleet::join() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

bool Fleet::ok() const {
  for (const auto& e : errors_) {
    if (e) return false;
  }
  return true;
}

std::vector<Fleet::ShardError> Fleet::shard_errors() const {
  std::vector<ShardError> out;
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (!errors_[i]) continue;
    ShardError err;
    err.region = static_cast<int>(i);
    try {
      std::rethrow_exception(errors_[i]);
    } catch (const control::ControllerCrash& c) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "controller crash after %lld commands (unsupervised)",
                    c.commands_executed);
      err.message = buf;
    } catch (const std::exception& e) {
      err.message = e.what();
    } catch (...) {
      err.message = "unknown exception";
    }
    out.push_back(std::move(err));
  }
  return out;
}

void Fleet::merge_metrics(obs::MetricsRegistry& dst) const {
  for (const auto& shard : shards_) {
    obs::merge_registry(dst, shard->metrics());
  }
  dst.set_gauge("fleet.regions", static_cast<double>(regions()));
  supervisor_->fold_into(dst);
}

bool FleetSupervisor::any_supervised() const {
  for (int r = 0; r < fleet_->regions(); ++r) {
    if (fleet_->shard(r).supervised()) return true;
  }
  return false;
}

RegionHealth FleetSupervisor::health(int region) const {
  return fleet_->shard(region).health();
}

int FleetSupervisor::quarantined_regions() const {
  int n = 0;
  for (int r = 0; r < fleet_->regions(); ++r) {
    if (health(r) == RegionHealth::kQuarantined) ++n;
  }
  return n;
}

long long FleetSupervisor::total_crashes() const {
  long long n = 0;
  for (int r = 0; r < fleet_->regions(); ++r) {
    n += fleet_->shard(r).slot().crashes();
  }
  return n;
}

long long FleetSupervisor::total_recoveries() const {
  long long n = 0;
  for (int r = 0; r < fleet_->regions(); ++r) {
    n += fleet_->shard(r).slot().recoveries();
  }
  return n;
}

std::string FleetSupervisor::trace() const {
  if (!any_supervised()) return {};
  std::string out = "# iris-fleet supervisor v1\n";
  char buf[192];
  for (int r = 0; r < fleet_->regions(); ++r) {
    const HealthSlot& s = fleet_->shard(r).slot();
    std::snprintf(buf, sizeof buf,
                  "region %d health %s crashes %lld recoveries %lld "
                  "retries %lld suppressed %lld backoff_s %.6f\n",
                  r, region_health_name(s.health()), s.crashes(),
                  s.recoveries(), s.recovery_retries(),
                  s.publishes_suppressed(), s.backoff_total_s());
    out += buf;
  }
  return out;
}

void FleetSupervisor::fold_into(obs::MetricsRegistry& dst) const {
  if (!any_supervised()) return;
  for (int r = 0; r < fleet_->regions(); ++r) {
    dst.set_gauge(
        obs::key("fleet.supervisor.health", {{"region", std::to_string(r)}}),
        static_cast<double>(static_cast<int>(health(r))));
  }
  dst.set_gauge("fleet.supervisor.quarantined_regions",
                static_cast<double>(quarantined_regions()));
}

struct WhatIfEngine::PlanEntry {
  std::shared_ptr<const fibermap::FiberMap> map;  // the planner refers to it
  std::shared_ptr<const core::ProvisionedNetwork> network;
  std::mutex planner_mu;  // concurrent first drills of this plan build once
  std::optional<core::IncrementalPlanner> planner;  // set once, then copied
  std::mutex timeline_mu;  // concurrent first probes of this plan record once
  std::shared_ptr<const reliability::FailureTimeline> timeline;  // set once
};

WhatIfEngine::WhatIfEngine(int threads) : threads_(threads) {
  if (threads_ <= 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

namespace {

/// Ticks the pinned snapshot lags the shard's declared head (0 on the
/// healthy cadence, where tick i runs with snapshot i-1 published).
long long snapshot_staleness(const RegionShard& shard,
                             const RegionSnapshot& snap) {
  const long long lag = shard.store().head() - 1 - snap.tick;
  return lag > 0 ? lag : 0;
}

}  // namespace

std::shared_ptr<WhatIfEngine::PlanEntry> WhatIfEngine::plan_entry(
    const RegionSnapshot& snap) {
  std::vector<std::shared_ptr<PlanEntry>> evicted;  // freed after unlocking
  const std::lock_guard<std::mutex> lock(plans_mu_);
  const PlanKey key{snap.map.get(), snap.network.get()};
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    // A network only this cache still holds belongs to a fleet that is
    // gone: no snapshot can ask for that plan again.
    for (auto e = plans_.begin(); e != plans_.end();) {
      if (e->second->network.use_count() == 1) {
        evicted.push_back(std::move(e->second));
        e = plans_.erase(e);
      } else {
        ++e;
      }
    }
    auto fresh = std::make_shared<PlanEntry>();
    fresh->map = snap.map;
    fresh->network = snap.network;
    it = plans_.emplace(key, std::move(fresh)).first;
  }
  return it->second;
}

core::IncrementalPlanner WhatIfEngine::clone_drill_base(
    const RegionSnapshot& snap) {
  const std::shared_ptr<PlanEntry> entry = plan_entry(snap);
  {
    const std::lock_guard<std::mutex> lock(entry->planner_mu);
    if (!entry->planner.has_value()) {
      entry->planner.emplace(build_drill_planner(snap));
      drill_bases_built_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return *entry->planner;  // read-only from here on: copies may run at once
}

std::shared_ptr<const reliability::FailureTimeline> WhatIfEngine::slo_timeline(
    const RegionSnapshot& snap) {
  const std::shared_ptr<PlanEntry> entry = plan_entry(snap);
  const std::lock_guard<std::mutex> lock(entry->timeline_mu);
  if (entry->timeline == nullptr) {
    entry->timeline = record_slo_timeline(snap);
    slo_timelines_recorded_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry->timeline;  // shared: outlives the entry's eviction
}

std::vector<WhatIfResult> WhatIfEngine::run_batch(
    const std::vector<Job>& jobs) {
  std::vector<WhatIfResult> results(jobs.size());
  if (jobs.empty()) return results;
  const auto batch_start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  const PlanProvider plans{
      [this](const RegionSnapshot& s) { return clone_drill_base(s); },
      [this](const RegionSnapshot& s) { return slo_timeline(s); }};
  const auto worker = [&] {
    // Private scratch registry: planner/reliability counters recorded
    // inside a query must never bleed into a region's deterministic series
    // or another worker's.
    obs::MetricsRegistry scratch;
    const obs::ScopedRegistry bind(scratch);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) break;
      scratch.reset();
      const Job& job = jobs[i];
      WhatIfResult& out = results[i];
      const RegionShard* shard = job.shard;
      const RegionSnapshot* snap = job.snapshot;
      if (snap == nullptr && shard != nullptr) {
        snap = shard->store().current();  // last-good pin, possibly stale
      }
      out.kind = job.query.kind;
      out.region = shard != nullptr ? shard->region()
                                    : (snap != nullptr ? snap->region : -1);
      if (snap != nullptr) {
        out.tick = snap->tick;
        out.version = snap->version;
        if (shard != nullptr) {
          out.staleness_ticks = snapshot_staleness(*shard, *snap);
        }
      }
      // Deadline budget against the batch's start: enforced before the
      // query runs, so a wedged replan consumes its own slot but cannot
      // push later queries past their budgets unanswered.
      if (job.query.deadline_ms > 0.0) {
        const double waited_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - batch_start)
                .count();
        if (waited_ms >= job.query.deadline_ms) {
          out.status = QueryStatus::kDeadlineExpired;
          deadline_expired_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      if (shard != nullptr &&
          shard->health() == RegionHealth::kQuarantined) {
        // Structured rejection: the region's crash budget is exhausted and
        // its books are not trustworthy -- say so instead of serving them.
        out.status = QueryStatus::kRegionQuarantined;
        rejected_quarantined_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (snap == nullptr) {
        out.status = QueryStatus::kNoSnapshot;
        continue;
      }
      const long long staleness = out.staleness_ticks;
      out = run_query(*snap, job.query, plans);
      out.staleness_ticks = staleness;
      if (out.status == QueryStatus::kInvalidQuery) {
        rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (shard != nullptr &&
          (staleness > 0 || shard->health() != RegionHealth::kHealthy)) {
        // Crashed/recovering region (or a head the publishes haven't caught
        // up with): the answer is real but computed on the last-good
        // snapshot -- tag it so callers can weigh it.
        out.status = QueryStatus::kStale;
        stale_served_.fetch_add(1, std::memory_order_relaxed);
      }
      total_.fetch_add(1, std::memory_order_relaxed);
      switch (job.query.kind) {
        case QueryKind::kFailureDrill:
          drills_.fetch_add(1, std::memory_order_relaxed);
          break;
        case QueryKind::kGrowth:
          growth_.fetch_add(1, std::memory_order_relaxed);
          break;
        case QueryKind::kSloProbe:
          slo_probes_.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
  };
  const int n = threads_ < static_cast<int>(jobs.size())
                    ? threads_
                    : static_cast<int>(jobs.size());
  // An exception escaping a std::thread's body calls std::terminate, so
  // each worker captures its own and the batch rethrows after the join.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  const auto guarded = [&](std::size_t w) {
    try {
      worker();
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(n > 1 ? n - 1 : 0));
  for (int i = 1; i < n; ++i) {
    pool.emplace_back(guarded, static_cast<std::size_t>(i));
  }
  guarded(0);  // the calling thread is worker 0
  for (auto& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

void WhatIfEngine::fold_into(obs::MetricsRegistry& dst) const {
  dst.add("fleet.queries.total", total_.load(std::memory_order_relaxed));
  dst.add("fleet.queries.drill", drills_.load(std::memory_order_relaxed));
  dst.add("fleet.queries.growth", growth_.load(std::memory_order_relaxed));
  dst.add("fleet.queries.slo_probe",
          slo_probes_.load(std::memory_order_relaxed));
  dst.add("fleet.queries.stale_served",
          stale_served_.load(std::memory_order_relaxed));
  dst.add("fleet.queries.rejected_quarantined",
          rejected_quarantined_.load(std::memory_order_relaxed));
  dst.add("fleet.queries.deadline_expired",
          deadline_expired_.load(std::memory_order_relaxed));
  dst.add("fleet.queries.rejected_invalid",
          rejected_invalid_.load(std::memory_order_relaxed));
  dst.add("fleet.queries.drill_bases_built",
          drill_bases_built_.load(std::memory_order_relaxed));
  dst.add("fleet.queries.slo_timelines_recorded",
          slo_timelines_recorded_.load(std::memory_order_relaxed));
}

}  // namespace iris::fleet
