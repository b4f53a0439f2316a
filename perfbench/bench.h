// Shared declarations of the end-to-end benchmark driver: the statement
// stream a workload generates, the per-workload interface, and the traced
// executor that replays statements layer by layer.

#ifndef EXPDB_PERFBENCH_BENCH_H_
#define EXPDB_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "sql/session.h"

namespace perfbench {

using expdb::Result;
using expdb::Status;
using expdb::sql::ExecResult;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's own generator, so the statement stream
/// depends only on the seed and this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % n); }
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

/// Statement kinds, grouped for the latency metrics.
enum class Kind { kSelect, kExecute, kCount, kViewRead, kInsert, kDelete, kAdvance };
constexpr int kKinds = 7;
const char* KindName(Kind kind);
inline bool IsRead(Kind k) { return k <= Kind::kViewRead; }

/// One generated statement plus what the generator knows about its answer.
struct Stmt {
  Stmt() = default;
  Stmt(Kind k, std::string text) : kind(k), sql(std::move(text)) {}

  Kind kind = Kind::kSelect;
  std::string sql;
  int64_t expect_rows = -1;  ///< exact row count, when the data is static
  int64_t expect_sum = -1;   ///< exact sum of the last column (COUNT(*))
  int table = -1;            ///< model table an INSERT/DELETE touches
  int64_t ttl = 0;           ///< INSERT: the rows' time to live
  int64_t rows = 0;          ///< INSERT: rows in the statement
  int64_t delete_v = -1;     ///< DELETE: the row id (column v) it removes
  std::vector<int64_t> vs;   ///< INSERT: each row's unique id (k or v)
};

/// Produces one session's statement stream from (seed, session).
class Generator {
 public:
  virtual ~Generator() = default;
  virtual Stmt Next() = 0;
};

/// One benchmark workload over one engine. A fresh instance is made for
/// every set-up, so its model of the data starts empty each time.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int sessions() const = 0;
  /// ttl_churn runs the engine's MaintenanceService at its default cadence.
  virtual bool maintenance() const { return false; }
  /// Creates tables, bulk-loads through SQL, creates views and prepared
  /// statements, and warms up. Every statement goes through `s`.
  virtual Status Setup(expdb::sql::Session& s) = 0;
  virtual std::unique_ptr<Generator> MakeGenerator(int session) = 0;
  /// Checks one served answer against the workload's knowledge (and folds
  /// a write into the model). Returns an empty string when it is correct.
  virtual std::string Check(const Stmt& stmt, const ExecResult& result) = 0;
  /// Runs the quiesced end-of-run checks through `s`; empty when all pass.
  virtual std::string FinalCheck(expdb::sql::Session& s) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
bool IsWorkloadName(const std::string& name);

/// Executes one statement and checks it; shared by set-up and the drift
/// guard. Returns an error description, empty on success.
std::string RunChecked(expdb::sql::Session& s, Workload& w, const Stmt& stmt);

/// Every served row must satisfy texp > served_at (expτ transparency).
std::string CheckTransparency(const ExecResult& result);

/// Rows and texps of a result in a canonical order, for comparisons.
std::vector<std::pair<std::string, int64_t>> Canonical(const ExecResult& r);

// --- traced replay ----------------------------------------------------------

/// The layer boundaries the traced run times, named after src/ modules.
enum class Layer : uint8_t {
  kStatement,  // root: one statement
  kParse,
  kNormalize,
  kBind,
  kStmtCacheLookup,
  kPlan,
  kInstantiate,
  kResultCacheLookup,
  kResultCacheInsert,
  kExecute,
  kCopyOut,
  kDeleteScan,
  kSnapshot,
  kWriteLock,
  kExclusiveLock,
  kMaintenancePass,
  kExpirationInsert,
  kExpirationAdvance,
  kViewRead,
  kViewAdvanceAll,
  kViewNotify,
};
constexpr int kLayers = 21;
const char* LayerName(Layer layer);

/// Operator kinds the executor's PlanProfile is folded into.
enum class OpKind { kScan, kFilter, kProject, kJoin, kAggregate, kOther };
constexpr int kOpKinds = 6;

struct Span {
  Layer layer;
  uint32_t parent;  ///< index in the owning trace, kNoParent for roots
  int64_t start_ns;
  int64_t end_ns;
  uint64_t stmt;
};
constexpr uint32_t kNoParent = 0xffffffffu;

/// Per-thread totals folded from spans as each statement ends.
struct LayerTotals {
  uint64_t calls[kLayers] = {};
  int64_t total_ns[kLayers] = {};
  int64_t self_ns[kLayers] = {};
  int64_t op_self_ns[kOpKinds] = {};
  uint64_t executes = 0;
  uint64_t scan_rows = 0;
  uint64_t root_rows = 0;
  uint64_t stmt_cache_lookups = 0;
  uint64_t stmt_cache_hits = 0;
  /// SELECT/EXECUTE roots: count, total, and the execute span inside them.
  uint64_t selects = 0;
  int64_t select_ns = 0;
  int64_t select_execute_ns = 0;

  void Add(const LayerTotals& o);
};

/// Replays statements through the layers' public functions in the order
/// sql::Session does, recording one span per call. One instance per
/// thread; not thread-safe.
class TracedExecutor {
 public:
  /// Keeps the full spans of the first `keep_statements` statements for
  /// export; every statement is folded into totals().
  TracedExecutor(std::shared_ptr<expdb::engine::Engine> engine,
                 size_t keep_statements);

  Result<ExecResult> Execute(const std::string& sql);

  /// One MaintenanceService pass timed as a root span.
  size_t RunMaintenancePass();

  const LayerTotals& totals() const { return totals_; }
  const std::vector<Span>& kept() const { return kept_; }
  /// Sum of the top-level stage spans of the last statement.
  int64_t last_stage_ns() const { return last_stage_ns_; }

 private:
  class Scope;
  template <typename F>
  auto Timed(Layer layer, F&& f);
  Result<ExecResult> Dispatch(const expdb::sql::Statement& stmt);
  Result<ExecResult> RunSelect(const expdb::sql::SelectStatement& stmt);
  Result<ExecResult> RunPrepared(
      const expdb::sql::ExecutePreparedStatement& stmt);
  Result<ExecResult> RunPlanned(const expdb::plan::PreparedPlan& prepared,
                                const std::vector<expdb::Value>& args,
                                expdb::Timestamp now);
  Result<ExecResult> RunInsert(const expdb::sql::InsertStatement& stmt);
  Result<ExecResult> RunAdvance(const expdb::sql::AdvanceStatement& stmt);
  Result<ExecResult> RunDelete(const expdb::sql::DeleteStatement& stmt);
  void FoldProfile(const expdb::plan::PhysicalPlan& plan,
                   const expdb::plan::PlanProfile& profile);
  void FinishStatement();

  std::shared_ptr<expdb::engine::Engine> engine_;
  expdb::EvalOptions eval_;
  size_t keep_statements_;
  uint64_t stmt_id_ = 0;
  uint32_t current_ = kNoParent;
  std::vector<Span> spans_;  // the statement in flight
  std::vector<Span> kept_;
  LayerTotals totals_;
  int64_t last_stage_ns_ = 0;
  bool is_select_ = false;
  int64_t exec_root_wall_ns_ = 0;
};

}  // namespace perfbench

#endif  // EXPDB_PERFBENCH_BENCH_H_
