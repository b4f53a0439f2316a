#include "replica/client.h"

#include "core/difference.h"
#include "obs/log.h"

namespace expdb {

namespace {

/// Sync-decision event: why this client went back to the server, under
/// which protocol, and what texp(e) the expiring copy carried.
void LogRefetchDecision(SyncProtocol protocol, const std::string& query,
                        const char* reason, Timestamp texp) {
  obs::EventLog& log = obs::EventLog::Global();
  if (!log.enabled()) return;
  log.Emit(obs::LogSeverity::kInfo, "replica", "refetch",
           {{"query", query},
            {"protocol", std::string(SyncProtocolToString(protocol))},
            {"reason", reason},
            {"texp", texp.ToString()}});
}

}  // namespace

std::string_view SyncProtocolToString(SyncProtocol protocol) {
  switch (protocol) {
    case SyncProtocol::kNaivePeriodic:
      return "naive-periodic";
    case SyncProtocol::kExpirationAware:
      return "expiration-aware";
    case SyncProtocol::kExpirationAwarePatch:
      return "expiration-aware-patch";
  }
  return "?";
}

Status ReplicationClient::Fetch(const std::string& name, Subscription* sub,
                                Timestamp now) {
  // The request span covers the round trip; its context travels to the
  // server inside the message as the traceparent header, so the server's
  // spans stitch under this one.
  obs::ScopedSpan span("replica.client.fetch");
  const std::string traceparent = TraceParentHeader::Capture().Serialize();
  // The patch protocol only applies to difference-rooted queries; other
  // shapes degrade gracefully to the plain expiration-aware fetch.
  bool patchable = false;
  if (options_.protocol == SyncProtocol::kExpirationAwarePatch) {
    auto query = server_->GetQuery(name);
    patchable = query.ok() && (*query)->kind() == ExprKind::kDifference;
  }
  if (patchable) {
    EXPDB_ASSIGN_OR_RETURN(
        DifferenceEvalResult diff,
        server_->FetchWithHelper(name, now, net_, traceparent));
    sub->result = std::move(diff.result);
    sub->helper = std::move(diff.helper);
    sub->patch_cursor = 0;
    sub->children_texp = diff.children_texp;
    // Root invalidations are neutralized by patching.
    sub->result.texp = diff.children_texp;
  } else {
    EXPDB_ASSIGN_OR_RETURN(sub->result,
                           server_->Fetch(name, now, net_, traceparent));
  }
  sub->last_fetch = now;
  metrics_.fetches.Increment();
  return Status::OK();
}

Status ReplicationClient::Subscribe(const std::string& name, Timestamp now) {
  if (subscriptions_.find(name) != subscriptions_.end()) {
    return Status::AlreadyExists("already subscribed to '" + name + "'");
  }
  Subscription sub;
  EXPDB_RETURN_NOT_OK(Fetch(name, &sub, now));
  subscriptions_.emplace(name, std::move(sub));
  return Status::OK();
}

void ReplicationClient::ApplyPatches(Subscription* sub, Timestamp now) {
  metrics_.patches_applied.Increment(ApplyDifferencePatches(
      sub->helper, &sub->patch_cursor, now, &sub->result.relation));
}

Result<Relation> ReplicationClient::Read(const std::string& name,
                                         Timestamp now) {
  auto it = subscriptions_.find(name);
  if (it == subscriptions_.end()) {
    return Status::NotFound("not subscribed to '" + name + "'");
  }
  Subscription& sub = it->second;
  metrics_.reads.Increment();

  switch (options_.protocol) {
    case SyncProtocol::kNaivePeriodic: {
      // The baseline neither understands expiration times nor invalidity:
      // it serves the raw last copy, re-fetched on a timer.
      if (now >= sub.last_fetch + options_.poll_interval) {
        LogRefetchDecision(options_.protocol, name, "poll_interval_elapsed",
                           sub.result.texp);
        EXPDB_RETURN_NOT_OK(Fetch(name, &sub, now));
      }
      // Serve everything fetched, stale or not (no expτ filtering: the
      // naive client received no expiration metadata).
      return sub.result.relation;
    }
    case SyncProtocol::kExpirationAware: {
      if (sub.result.texp <= now) {
        LogRefetchDecision(options_.protocol, name, "texp_elapsed",
                           sub.result.texp);
        EXPDB_RETURN_NOT_OK(Fetch(name, &sub, now));
      }
      return sub.result.relation.UnexpiredAt(now);
    }
    case SyncProtocol::kExpirationAwarePatch: {
      ApplyPatches(&sub, now);
      if (sub.result.texp <= now) {
        LogRefetchDecision(options_.protocol, name, "texp_elapsed",
                           sub.result.texp);
        EXPDB_RETURN_NOT_OK(Fetch(name, &sub, now));
        ApplyPatches(&sub, now);
      }
      return sub.result.relation.UnexpiredAt(now);
    }
  }
  return Status::Internal("unknown protocol");
}

}  // namespace expdb
