// The three workloads: their data, statement streams, answer checks, and
// quiesced end-of-run checks. Logical time advances only through
// statements in the stream, never by wall clock.

#include <algorithm>
#include <bitset>
#include <cmath>
#include <mutex>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

namespace sql = expdb::sql;
using expdb::Timestamp;
using expdb::Tuple;

const char* KindName(Kind kind) {
  static const char* const kNames[kKinds] = {
      "select", "execute", "count", "view_read", "insert", "delete", "advance"};
  return kNames[static_cast<int>(kind)];
}

std::string CheckTransparency(const ExecResult& result) {
  if (!result.relation.has_value()) return "no rows returned";
  std::string error;
  result.relation->ForEach([&](const Tuple& t, Timestamp texp) {
    if (error.empty() && texp <= result.served_at) {
      error = "row " + t.ToString() + " with texp " + texp.ToString() +
              " served at " + result.served_at.ToString();
    }
  });
  return error;
}

std::vector<std::pair<std::string, int64_t>> Canonical(const ExecResult& r) {
  std::vector<std::pair<std::string, int64_t>> rows;
  if (!r.relation.has_value()) return rows;
  r.relation->ForEach([&](const Tuple& t, Timestamp texp) {
    rows.emplace_back(t.ToString(), texp.ticks());
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string RunChecked(sql::Session& s, Workload& w, const Stmt& stmt) {
  Result<ExecResult> r = s.Execute(stmt.sql);
  if (!r.ok()) return stmt.sql + ": " + r.status().ToString();
  std::string error = w.Check(stmt, r.value());
  return error.empty() ? error : stmt.sql + ": " + error;
}

namespace {

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Str(int64_t v) { return std::to_string(v); }

/// Sum of the last column over the served rows (a COUNT(*) column).
int64_t LastColumnSum(const ExecResult& r) {
  int64_t sum = 0;
  r.relation->ForEach([&](const Tuple& t, Timestamp) {
    const expdb::Value& v = t.at(t.arity() - 1);
    if (v.is_int64()) sum += v.AsInt64();
  });
  return sum;
}

std::string ExpectEq(const char* what, int64_t got, int64_t want) {
  if (got == want) return "";
  return std::string(what) + " " + Str(got) + ", expected " + Str(want);
}

/// The rows a table should hold: each row's unique id and its texp, kept
/// from the served_at of the INSERT and DELETE that touched it.
class TableModel {
 public:
  void Insert(const std::vector<int64_t>& ids, Timestamp texp) {
    std::lock_guard<std::mutex> guard(mu_);
    for (int64_t id : ids) texp_[id] = texp;
  }
  /// Removes `id` if it is live at `now`; returns the rows removed.
  int64_t Delete(int64_t id, Timestamp now) {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = texp_.find(id);
    if (it == texp_.end() || it->second <= now) return 0;
    texp_.erase(it);
    return 1;
  }
  int64_t LiveAt(Timestamp now) const {
    std::lock_guard<std::mutex> guard(mu_);
    int64_t n = 0;
    for (const auto& [id, texp] : texp_) n += texp > now ? 1 : 0;
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<int64_t, Timestamp> texp_;
};

/// Folds an INSERT or DELETE into `model`; shared by the write workloads.
std::string CheckWrite(TableModel& model, const Stmt& stmt,
                       const ExecResult& r) {
  if (stmt.kind == Kind::kInsert) {
    model.Insert(stmt.vs, r.served_at + stmt.ttl);
    const std::string want = Str(stmt.rows) + (stmt.rows == 1 ? " row" : " rows");
    return r.message.rfind(want + " inserted", 0) == 0 ? "" : r.message;
  }
  const int64_t deleted = std::stoll(r.message);
  return ExpectEq("deleted", deleted, model.Delete(stmt.delete_v, r.served_at));
}

std::string CountRows(sql::Session& s, const std::string& table,
                      int64_t* out) {
  Result<ExecResult> r = s.Execute("SELECT COUNT(*) FROM " + table);
  if (!r.ok()) return r.status().ToString();
  *out = LastColumnSum(r.value());
  return "";
}

/// Compares two statements' served rows and texps.
std::string SameAnswer(sql::Session& s, const std::string& a,
                       const std::string& b) {
  Result<ExecResult> ra = s.Execute(a);
  Result<ExecResult> rb = s.Execute(b);
  if (!ra.ok()) return a + ": " + ra.status().ToString();
  if (!rb.ok()) return b + ": " + rb.status().ToString();
  if (Canonical(ra.value()) != Canonical(rb.value())) {
    return a + " and " + b + " differ (" +
           Str(ra->relation->size()) + " vs " + Str(rb->relation->size()) +
           " rows)";
  }
  return "";
}

/// Remaining lifetime of a live row in a stream whose TTLs are uniform in
/// [1, max_ttl]: triangular, so a table preloaded with it starts at the
/// stream's steady state instead of drifting towards it during the run.
int64_t SteadyStateTtl(Rng& rng, int64_t max_ttl) {
  return 1 + static_cast<int64_t>(max_ttl * (1 - std::sqrt(rng.Unit())));
}

// --- scan_read ---------------------------------------------------------------

constexpr int64_t kReadings = 65536;
constexpr int64_t kSensors = 256;
constexpr int64_t kTsBits = 26;  // ts in [0, 2^26): 1024 ticks per reading
// ~3% of the rows: large enough that the results alone fill the default
// 64 MiB result cache within seconds, so it churns during every run.
constexpr int64_t kWindow = 2000 * 1024;

/// Read-only: 4 sessions scan a static 64 k-row fact table with windows
/// that never repeat, so every result-cache lookup misses.
class ScanRead : public Workload {
 public:
  explicit ScanRead(uint64_t seed) {
    Rng rng(seed ^ 0x5ca1ab1e);
    for (int64_t i = 0; i < kReadings; ++i) {
      rows_.push_back({i * 1024 + rng.Below(1024), rng.Below(kSensors),
                       rng.Below(1000)});
    }
    offset_ = rng.Next();
  }

  int sessions() const override { return 4; }

  Status Setup(sql::Session& s) override {
    std::vector<std::string> sensors;
    for (int64_t i = 0; i < kSensors; ++i) {
      sensors.push_back("(" + Str(i) + ", " + Str(i % 8) + ")");
    }
    std::vector<std::string> setup = {
        "CREATE TABLE sensors (sensor INT, region INT)",
        "INSERT INTO sensors VALUES " + Join(sensors, ", "),
        "CREATE TABLE readings (sensor INT, ts INT, val INT)"};
    for (int64_t b = 0; b < kReadings / 512; ++b) {
      std::vector<std::string> values;
      for (int64_t i = b * 512; i < (b + 1) * 512; ++i) {
        values.push_back("(" + Str(rows_[i].sensor) + ", " + Str(rows_[i].ts) +
                         ", " + Str(rows_[i].val) + ")");
      }
      setup.push_back("INSERT INTO readings VALUES " + Join(values, ", ") +
                      " TTL " + Str(1000000 + b));
    }
    for (const std::string& sql : setup) {
      Result<ExecResult> r = s.Execute(sql);
      if (!r.ok()) return r.status();
    }
    // Warm-up: plan every shape, on windows the timed stream never draws.
    for (int64_t k = 0; k < 24; ++k) {
      std::string error = RunChecked(s, *this, Make((1 << 25) + k, k % 3));
      if (!error.empty()) return Status::Internal(error);
    }
    return Status::OK();
  }

  std::unique_ptr<Generator> MakeGenerator(int session) override {
    class Gen : public Generator {
     public:
      Gen(ScanRead* w, int session) : w_(w), session_(session) {}
      Stmt Next() override {
        const int64_t k = session_ + 4 * j_++;
        return w_->Make(k, k % 3);
      }

     private:
      ScanRead* w_;
      int session_;
      int64_t j_ = 0;
    };
    return std::make_unique<Gen>(this, session);
  }

  std::string Check(const Stmt& stmt, const ExecResult& r) override {
    std::string error = CheckTransparency(r);
    if (error.empty()) {
      error = ExpectEq("rows", static_cast<int64_t>(r.relation->size()),
                       stmt.expect_rows);
    }
    if (error.empty() && stmt.expect_sum >= 0) {
      error = ExpectEq("count sum", LastColumnSum(r), stmt.expect_sum);
    }
    return error;
  }

  std::string FinalCheck(sql::Session& s) override {
    int64_t readings = 0, sensors = 0;
    std::string error = CountRows(s, "readings", &readings);
    if (error.empty()) error = CountRows(s, "sensors", &sensors);
    if (error.empty()) error = ExpectEq("readings", readings, kReadings);
    if (error.empty()) error = ExpectEq("sensors", sensors, kSensors);
    return error;
  }

 private:
  struct Row {
    int64_t ts, sensor, val;
  };

  /// Statement k of the stream: the window start is a bijection of k over
  /// [0, 2^26), so no (shape, window) pair ever repeats.
  Stmt Make(int64_t k, int64_t shape) const {
    const int64_t mask = (int64_t{1} << kTsBits) - 1;
    const int64_t a =
        static_cast<int64_t>((static_cast<uint64_t>(k) * 0x9E3779B1ULL +
                              offset_) & static_cast<uint64_t>(mask));
    const int64_t b = a + kWindow - 1;
    auto lo = std::lower_bound(rows_.begin(), rows_.end(), a,
                               [](const Row& r, int64_t t) { return r.ts < t; });
    auto hi = std::upper_bound(rows_.begin(), rows_.end(), b,
                               [](int64_t t, const Row& r) { return t < r.ts; });
    const int64_t count = hi - lo;
    const std::string range = Str(a) + " AND ";
    Stmt stmt;
    stmt.kind = Kind::kSelect;
    if (shape == 0) {
      stmt.sql = "SELECT sensor, ts, val FROM readings WHERE ts >= " + range +
                 "ts <= " + Str(b);
      stmt.expect_rows = count;
    } else if (shape == 1) {
      stmt.sql =
          "SELECT r.ts, r.val, s.region FROM readings r, sensors s WHERE "
          "r.sensor = s.sensor AND r.ts >= " + range + "r.ts <= " + Str(b);
      stmt.expect_rows = count;
    } else {
      std::bitset<kSensors> seen;
      for (auto it = lo; it != hi; ++it) seen.set(it->sensor);
      stmt.sql = "SELECT sensor, COUNT(*) FROM readings WHERE ts >= " + range +
                 "ts <= " + Str(b) + " GROUP BY sensor";
      stmt.expect_rows = static_cast<int64_t>(seen.count());
      stmt.expect_sum = count;
    }
    return stmt;
  }

  uint64_t offset_ = 0;
  std::vector<Row> rows_;  // ascending ts
};

// --- hot_cache ---------------------------------------------------------------

constexpr int64_t kHotRows = 8192;
constexpr int64_t kHotGroups = 128;
constexpr int64_t kHotTtl = 3200;  // with 5 inserts per advance: ~8 k live
constexpr int kHotPairs = 100;

/// 4 sessions over one 8 k-row table: Zipf reads of a hot set that fits
/// the result cache, with inserts and time advances that patch and lapse
/// its entries.
class HotCache : public Workload {
 public:
  explicit HotCache(uint64_t seed) : seed_(seed) {
    Rng rng(seed ^ 0x40cac4e);
    std::vector<int64_t> groups(kHotGroups), bands(100);
    for (int64_t i = 0; i < kHotGroups; ++i) groups[i] = i;
    for (int64_t i = 0; i < 100; ++i) bands[i] = i * 10;
    for (auto* v : {&groups, &bands}) {
      for (size_t i = v->size() - 1; i > 0; --i) {
        std::swap((*v)[i], (*v)[rng.Below(static_cast<int64_t>(i) + 1)]);
      }
    }
    // Pairs alternate shapes, so both shapes have hot and cold members.
    for (int i = 0; i < kHotPairs; ++i) {
      const int64_t arg = i % 2 == 0 ? groups[i / 2] : bands[i / 2];
      pairs_.push_back({i % 2, arg});
    }
    double total = 0;
    for (int i = 0; i < kHotPairs; ++i) total += 1.0 / (i + 1);
    double acc = 0;
    for (int i = 0; i < kHotPairs; ++i) {
      acc += 1.0 / (i + 1) / total;
      zipf_cdf_.push_back(acc);
    }
  }

  int sessions() const override { return 4; }

  Status Setup(sql::Session& s) override {
    Result<ExecResult> r =
        s.Execute("CREATE TABLE hot (k INT, grp INT, v INT)");
    if (!r.ok()) return r.status();
    Rng rng(seed_ ^ 0x10ad);
    for (int64_t b = 0; b < kHotRows / 32; ++b) {
      Stmt stmt;
      stmt.kind = Kind::kInsert;
      stmt.ttl = SteadyStateTtl(rng, kHotTtl);
      std::vector<std::string> values;
      for (int64_t k = b * 32; k < (b + 1) * 32; ++k) {
        values.push_back("(" + Str(k) + ", " + Str(k % kHotGroups) + ", " +
                         Str(rng.Below(1000)) + ")");
        stmt.vs.push_back(k);
      }
      stmt.rows = 32;
      stmt.sql = "INSERT INTO hot VALUES " + Join(values, ", ") + " TTL " +
                 Str(stmt.ttl);
      std::string error = RunChecked(s, *this, stmt);
      if (!error.empty()) return Status::Internal(error);
    }
    for (const char* prepare :
         {"PREPARE qa AS SELECT k, v FROM hot WHERE grp = $1",
          "PREPARE qb AS SELECT k, grp FROM hot WHERE v >= $1 AND v < $2"}) {
      r = s.Execute(prepare);
      if (!r.ok()) return r.status();
    }
    // Warm-up: fill the result cache with every hot pair, both forms.
    for (int i = 0; i < kHotPairs; ++i) {
      for (bool prepared : {false, true}) {
        std::string error = RunChecked(s, *this, Read(i, prepared));
        if (!error.empty()) return Status::Internal(error);
      }
    }
    return Status::OK();
  }

  std::unique_ptr<Generator> MakeGenerator(int session) override {
    class Gen : public Generator {
     public:
      Gen(HotCache* w, int session, uint64_t seed)
          : w_(w), rng_(seed * 31 + session), next_k_((session + 1) * 100000000LL) {}
      Stmt Next() override {
        const double u = rng_.Unit();
        if (u < 0.01) return Stmt{Kind::kAdvance, "ADVANCE TIME 1"};
        if (u < 0.06) {
          Stmt stmt;
          stmt.kind = Kind::kInsert;
          stmt.ttl = 1 + rng_.Below(kHotTtl);
          stmt.rows = 1;
          stmt.vs = {next_k_};
          stmt.sql = "INSERT INTO hot VALUES (" + Str(next_k_) + ", " +
                     Str(rng_.Below(kHotGroups)) + ", " + Str(rng_.Below(1000)) +
                     ") TTL " + Str(stmt.ttl);
          ++next_k_;
          return stmt;
        }
        const double z = rng_.Unit();
        const int pair = static_cast<int>(
            std::lower_bound(w_->zipf_cdf_.begin(), w_->zipf_cdf_.end(), z) -
            w_->zipf_cdf_.begin());
        return w_->Read(std::min(pair, kHotPairs - 1), rng_.Next() & 1);
      }

     private:
      HotCache* w_;
      Rng rng_;
      int64_t next_k_;
    };
    return std::make_unique<Gen>(this, session, seed_);
  }

  std::string Check(const Stmt& stmt, const ExecResult& r) override {
    if (stmt.kind == Kind::kInsert) return CheckWrite(model_, stmt, r);
    if (stmt.kind == Kind::kAdvance) return "";
    return CheckTransparency(r);
  }

  std::string FinalCheck(sql::Session& s) override {
    std::vector<ExecResult> cached;
    for (int i = 0; i < kHotPairs; ++i) {
      Result<ExecResult> r = s.Execute(Read(i, false).sql);
      if (!r.ok()) return r.status().ToString();
      cached.push_back(r.MoveValue());
    }
    Result<ExecResult> off = s.Execute("SET result_cache_bytes = 0");
    if (!off.ok()) return off.status().ToString();
    for (int i = 0; i < kHotPairs; ++i) {
      const Stmt stmt = Read(i, false);
      Result<ExecResult> r = s.Execute(stmt.sql);
      if (!r.ok()) return r.status().ToString();
      if (Canonical(cached[i]) != Canonical(r.value())) {
        return stmt.sql + ": cached answer differs from uncached";
      }
    }
    int64_t live = 0;
    std::string error = CountRows(s, "hot", &live);
    if (error.empty()) error = ExpectEq("hot live rows", live, model_.LiveAt(s.Now()));
    return error;
  }

 private:
  Stmt Read(int pair, bool prepared) const {
    const auto [shape, arg] = pairs_[pair];
    Stmt stmt;
    stmt.kind = prepared ? Kind::kExecute : Kind::kSelect;
    if (shape == 0) {
      stmt.sql = prepared ? "EXECUTE qa (" + Str(arg) + ")"
                          : "SELECT k, v FROM hot WHERE grp = " + Str(arg);
    } else {
      stmt.sql = prepared
                     ? "EXECUTE qb (" + Str(arg) + ", " + Str(arg + 10) + ")"
                     : "SELECT k, grp FROM hot WHERE v >= " + Str(arg) +
                           " AND v < " + Str(arg + 10);
    }
    return stmt;
  }

  uint64_t seed_;
  std::vector<std::pair<int, int64_t>> pairs_;  // (shape, argument)
  std::vector<double> zipf_cdf_;
  TableModel model_;
};

// --- ttl_churn ---------------------------------------------------------------

constexpr int64_t kChurnRows = 16384;  // live rows per table at steady state
constexpr int64_t kChurnTtl = 2000;    // new rows: TTL uniform in [1, 2000]
constexpr int64_t kChurnBatch = 8;     // rows per streamed INSERT
constexpr int64_t kChurnKeys = 40000;
constexpr int kInsertsPerAdvance = 4;
constexpr int kInsertsPerDelete = 20;
const char* const kSelView = "SELECT k, v FROM w0 WHERE k < 4000";
const char* const kDiffView =
    "SELECT k FROM w0 WHERE k < 4000 EXCEPT SELECT k FROM w1 WHERE k < 4000";

/// 2 writers stream TTL'd rows into their own tables and advance time; 1
/// reader reads a monotonic view, a non-monotonic (EXCEPT) view, and a
/// base-table count; the MaintenanceService runs beside them.
class TtlChurn : public Workload {
 public:
  explicit TtlChurn(uint64_t seed) : seed_(seed) {}

  int sessions() const override { return 3; }
  bool maintenance() const override { return true; }

  Status Setup(sql::Session& s) override {
    for (const char* ddl : {"CREATE TABLE w0 (k INT, v INT)",
                            "CREATE TABLE w1 (k INT, v INT)"}) {
      Result<ExecResult> r = s.Execute(ddl);
      if (!r.ok()) return r.status();
    }
    // Preload each table at its steady state.
    for (int t = 0; t < 2; ++t) {
      Rng rng(seed_ ^ (0x77 + t));
      for (int64_t b = 0; b < kChurnRows / 32; ++b) {
        Stmt stmt;
        stmt.kind = Kind::kInsert;
        stmt.table = t;
        stmt.rows = 32;
        stmt.ttl = SteadyStateTtl(rng, kChurnTtl);
        std::vector<std::string> values;
        for (int64_t v = b * 32; v < (b + 1) * 32; ++v) {
          values.push_back("(" + Str(rng.Below(kChurnKeys)) + ", " + Str(v) +
                           ")");
          stmt.vs.push_back(v);
        }
        stmt.sql = "INSERT INTO w" + Str(t) + " VALUES " + Join(values, ", ") +
                   " TTL " + Str(stmt.ttl);
        std::string error = RunChecked(s, *this, stmt);
        if (!error.empty()) return Status::Internal(error);
      }
    }
    for (const std::string& ddl :
         {std::string("CREATE VIEW v_sel AS ") + kSelView,
          std::string("CREATE VIEW v_diff AS ") + kDiffView}) {
      Result<ExecResult> r = s.Execute(ddl);
      if (!r.ok()) return r.status();
    }
    // Warm-up: one pass of the reader's cycle.
    auto reader = MakeGenerator(2);
    for (int i = 0; i < 3; ++i) {
      std::string error = RunChecked(s, *this, reader->Next());
      if (!error.empty()) return Status::Internal(error);
    }
    return Status::OK();
  }

  std::unique_ptr<Generator> MakeGenerator(int session) override {
    if (session == 2) {
      class Reader : public Generator {
       public:
        Stmt Next() override {
          switch (i_++ % 3) {
            case 0:
              return Stmt{Kind::kViewRead, "SELECT * FROM v_sel"};
            case 1:
              return Stmt{Kind::kViewRead, "SELECT * FROM v_diff"};
            default:
              return Stmt{Kind::kCount, "SELECT COUNT(*) FROM w1"};
          }
        }

       private:
        int64_t i_ = 0;
      };
      return std::make_unique<Reader>();
    }
    class Writer : public Generator {
     public:
      Writer(int table, uint64_t seed)
          : table_(table), rng_(seed * 131 + table) {}
      Stmt Next() override {
        Stmt stmt;
        stmt.table = table_;
        const std::string name = "w" + Str(table_);
        if (pending_advance_) {
          pending_advance_ = false;
          return Stmt{Kind::kAdvance, "ADVANCE TIME 1"};
        }
        if (pending_delete_) {
          pending_delete_ = false;
          stmt.kind = Kind::kDelete;
          stmt.delete_v = next_v_ - kInsertsPerDelete * kChurnBatch;
          stmt.sql = "DELETE FROM " + name + " WHERE v = " + Str(stmt.delete_v);
          return stmt;
        }
        stmt.kind = Kind::kInsert;
        stmt.rows = kChurnBatch;
        stmt.ttl = 1 + rng_.Below(kChurnTtl);
        std::vector<std::string> values;
        for (int64_t i = 0; i < kChurnBatch; ++i) {
          values.push_back("(" + Str(rng_.Below(kChurnKeys)) + ", " +
                           Str(next_v_) + ")");
          stmt.vs.push_back(next_v_++);
        }
        stmt.sql = "INSERT INTO " + name + " VALUES " + Join(values, ", ") +
                   " TTL " + Str(stmt.ttl);
        ++inserts_;
        pending_advance_ = inserts_ % kInsertsPerAdvance == 0;
        pending_delete_ = inserts_ % kInsertsPerDelete == 0;
        return stmt;
      }

     private:
      int table_;
      Rng rng_;
      int64_t next_v_ = kChurnRows;
      int64_t inserts_ = 0;
      bool pending_advance_ = false;
      bool pending_delete_ = false;
    };
    return std::make_unique<Writer>(session, seed_);
  }

  std::string Check(const Stmt& stmt, const ExecResult& r) override {
    switch (stmt.kind) {
      case Kind::kInsert:
      case Kind::kDelete:
        return CheckWrite(models_[stmt.table], stmt, r);
      case Kind::kAdvance:
        return "";
      default:
        return CheckTransparency(r);
    }
  }

  std::string FinalCheck(sql::Session& s) override {
    std::string error = SameAnswer(s, "SELECT * FROM v_sel", kSelView);
    if (error.empty()) error = SameAnswer(s, "SELECT * FROM v_diff", kDiffView);
    for (int t = 0; t < 2 && error.empty(); ++t) {
      int64_t live = 0;
      error = CountRows(s, "w" + Str(t), &live);
      if (error.empty()) {
        error = ExpectEq("live rows", live, models_[t].LiveAt(s.Now()));
      }
    }
    return error;
  }

 private:
  uint64_t seed_;
  TableModel models_[2];
};

}  // namespace

bool IsWorkloadName(const std::string& name) {
  return name == "scan_read" || name == "hot_cache" || name == "ttl_churn";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "scan_read") return std::make_unique<ScanRead>(seed);
  if (name == "hot_cache") return std::make_unique<HotCache>(seed);
  return std::make_unique<TtlChurn>(seed);
}

}  // namespace perfbench
