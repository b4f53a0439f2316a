#include "expiration/expiration_queue.h"

#include <algorithm>

#include "obs/log.h"
#include "obs/trace.h"

namespace expdb {

ExpirationMetrics::ExpirationMetrics() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  inserted.SetParent(r.GetCounter("expdb_expiration_inserted_total"));
  removed.SetParent(r.GetCounter("expdb_expiration_removed_total"));
  triggers_fired.SetParent(
      r.GetCounter("expdb_expiration_triggers_fired_total"));
  compactions.SetParent(r.GetCounter("expdb_expiration_compactions_total"));
  segments_dropped.SetParent(r.GetCounter(
      "expdb_segment_dropped_total",
      "Whole storage segments bulk-dropped by expiration removal"));
  drain_latency.SetParent(r.GetHistogram("expdb_expiration_drain_latency_ns"));
}

std::string_view RemovalPolicyToString(RemovalPolicy policy) {
  switch (policy) {
    case RemovalPolicy::kEager:
      return "eager";
    case RemovalPolicy::kLazy:
      return "lazy";
  }
  return "?";
}

ExpirationManager::ExpirationManager(ExpirationManagerOptions options)
    : options_(options) {}

Result<Relation*> ExpirationManager::CreateRelation(const std::string& name,
                                                    Schema schema) {
  return db_.CreateRelation(name, std::move(schema));
}

Status ExpirationManager::Insert(const std::string& relation, Tuple tuple,
                                 Timestamp texp) {
  std::vector<Tuple> one;
  one.push_back(std::move(tuple));
  return InsertAll(relation, std::move(one), texp);
}

Status ExpirationManager::InsertAll(const std::string& relation,
                                    std::vector<Tuple> tuples,
                                    Timestamp texp) {
  if (texp <= clock_.Now()) {
    return Status::InvalidArgument(
        "expiration time " + texp.ToString() +
        " is not in the future (now = " + clock_.Now().ToString() + ")");
  }
  EXPDB_ASSIGN_OR_RETURN(Relation * rel, db_.GetRelation(relation));
  const size_t n = tuples.size();
  EXPDB_RETURN_NOT_OK(rel->InsertAll(std::move(tuples), texp));
  metrics_.inserted.Increment(n);
  return Status::OK();
}

Status ExpirationManager::InsertWithTtl(const std::string& relation,
                                        Tuple tuple, int64_t ttl) {
  if (ttl <= 0) {
    return Status::InvalidArgument("ttl must be positive, got " +
                                   std::to_string(ttl));
  }
  return Insert(relation, std::move(tuple), clock_.Now() + ttl);
}

void ExpirationManager::AddTrigger(ExpirationTrigger trigger) {
  std::lock_guard<std::mutex> guard(triggers_mu_);
  triggers_.push_back(std::move(trigger));
}

Status ExpirationManager::AdvanceTo(Timestamp t) {
  EXPDB_RETURN_NOT_OK(clock_.AdvanceTo(t));
  if (options_.policy == RemovalPolicy::kEager) {
    obs::ScopedSpan span("expiration.drain", &metrics_.drain_latency);
    const Relation::DropResult drained =
        Drain(db_.RelationNames(), /*eager=*/true);
    // One batch event per non-empty drain, not one per tuple: the event
    // log records decisions, not the tuple stream.
    obs::EventLog& log = obs::EventLog::Global();
    if (drained.tuples > 0 && log.enabled()) {
      log.Emit(obs::LogSeverity::kInfo, "expiration", "drain",
               {{"now", t.ToString()},
                {"removed", std::to_string(drained.tuples)},
                {"segments_dropped", std::to_string(drained.segments)}});
    }
  } else {
    MaybeAutoCompact();
  }
  return Status::OK();
}

Status ExpirationManager::Advance(int64_t ticks) {
  if (ticks < 0) {
    return Status::InvalidArgument("cannot advance by negative ticks");
  }
  return AdvanceTo(clock_.Now() + ticks);
}

void ExpirationManager::MaybeAutoCompact() {
  if (options_.lazy_compaction_threshold <= 0) return;
  const Timestamp now = clock_.Now();
  std::vector<std::string> due;
  for (const std::string& name : db_.RelationNames()) {
    const Relation* rel = db_.GetRelation(name).value();
    if (rel->empty()) continue;
    const double expired_fraction =
        static_cast<double>(rel->OccupancyAt(now).expired_tuples) /
        static_cast<double>(rel->size());
    if (expired_fraction > options_.lazy_compaction_threshold) {
      due.push_back(name);
    }
  }
  if (!due.empty()) {
    obs::ScopedSpan span("expiration.compact", &metrics_.drain_latency);
    Drain(due, /*eager=*/false);
  }
}

size_t ExpirationManager::Compact() {
  obs::ScopedSpan span("expiration.compact", &metrics_.drain_latency);
  return Drain(db_.RelationNames(), /*eager=*/false).tuples;
}

Relation::DropResult ExpirationManager::Drain(
    const std::vector<std::string>& names, bool eager) {
  const Timestamp now = clock_.Now();
  const bool triggers = HasTriggers();
  Relation::DropResult total;
  std::vector<ExpirationEvent> events;
  for (const std::string& name : names) {
    Relation* rel = db_.GetRelation(name).value();
    // Delta consumers hear of eager removals (one delete batch), so cached
    // results and views shed the tuples; lazy compaction stays invisible.
    const bool record = eager && rel->delta_tracking();
    Relation::DropResult drained;
    if (triggers) {
      const size_t segments = rel->SegmentCount();
      std::vector<std::pair<Tuple, Timestamp>> removed =
          rel->RemoveExpired(now, record);
      drained = {removed.size(), segments - rel->SegmentCount()};
      for (auto& [tuple, texp] : removed) {
        events.push_back({name, std::move(tuple), texp, eager ? texp : now});
      }
    } else {
      // Nobody reads the removed tuples: fully expired segments drop whole,
      // or move into the delta ring when `record`.
      drained = rel->DropExpired(now, record);
    }
    if (drained.tuples == 0) continue;
    total.tuples += drained.tuples;
    total.segments += drained.segments;
    metrics_.removed.Increment(drained.tuples);
    metrics_.segments_dropped.Increment(drained.segments);
    if (eager) continue;
    metrics_.compactions.Increment();
    obs::EventLog& log = obs::EventLog::Global();
    if (log.enabled()) {
      log.Emit(obs::LogSeverity::kInfo, "expiration", "compact",
               {{"relation", name},
                {"segments_dropped", std::to_string(drained.segments)},
                {"removed", std::to_string(drained.tuples)},
                {"now", now.ToString()}});
    }
  }
  if (events.empty()) return total;
  // Each relation's removals arrive sorted by (texp, tuple) and `names` is
  // sorted, so a stable sort on texp yields (texp, relation, tuple).
  std::stable_sort(events.begin(), events.end(),
                   [](const ExpirationEvent& a, const ExpirationEvent& b) {
                     return a.texp < b.texp;
                   });
  std::lock_guard<std::mutex> guard(triggers_mu_);
  for (const ExpirationEvent& event : events) {
    for (const ExpirationTrigger& trigger : triggers_) {
      trigger(event);
      metrics_.triggers_fired.Increment();
    }
  }
  return total;
}

}  // namespace expdb
