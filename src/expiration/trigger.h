// Expiration triggers (paper Sec. 1: "triggers can be supported that fire
// on expirations, as can integrity constraint checking").

#ifndef EXPDB_EXPIRATION_TRIGGER_H_
#define EXPDB_EXPIRATION_TRIGGER_H_

#include <functional>
#include <string>

#include "common/timestamp.h"
#include "relational/tuple.h"

namespace expdb {

/// \brief An expiration event: `tuple` of relation `relation` ceased to be
/// current at time `texp` and was physically removed at `removed_at`
/// (equal to texp under eager removal; possibly later under lazy removal).
struct ExpirationEvent {
  std::string relation;
  Tuple tuple;
  Timestamp texp;
  Timestamp removed_at;
};

/// \brief Callback fired once per expired tuple, in (texp, relation, tuple)
/// order across every relation one advance or compaction removes from.
using ExpirationTrigger = std::function<void(const ExpirationEvent&)>;

}  // namespace expdb

#endif  // EXPDB_EXPIRATION_TRIGGER_H_
