#include "relational/database.h"

namespace expdb {

Result<Relation*> Database::CreateRelation(const std::string& name,
                                           Schema schema) {
  EXPDB_ASSIGN_OR_RETURN(Relation * rel,
                         AddTable(name, Relation(std::move(schema))));
  // Base relations get expiration-partitioned storage: they live long,
  // accumulate expired tuples between compactions, and are what scans and
  // the maintenance pass iterate. Derived/scratch relations registered via
  // PutRelation stay flat — they are short-lived materializations whose
  // entries() the parallel evaluator chunks directly.
  rel->SetSegmented();
  return rel;
}

Status Database::PutRelation(const std::string& name, Relation relation) {
  return AddTable(name, std::move(relation)).status();
}

Result<Relation*> Database::AddTable(const std::string& name,
                                     Relation relation) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must not be empty");
  }
  if (views_.count(name) > 0) {
    return Status::AlreadyExists("view '" + name + "' already exists");
  }
  auto [it, inserted] = relations_.try_emplace(
      name, std::make_unique<Entry>(std::move(relation)));
  if (!inserted) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  return &it->second->relation;
}

Result<Relation*> Database::GetRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return &it->second->relation;
}

Result<const Relation*> Database::GetRelation(const std::string& name) const {
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    return static_cast<const Relation*>(&it->second->relation);
  }
  if (const View* view = FindView(name)) return view->relation;
  return Status::NotFound("no relation named '" + name + "'");
}

Status Database::AttachView(const std::string& name, const Relation* relation,
                            std::set<std::string> bases) {
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto [it, inserted] = views_.try_emplace(name, std::make_unique<View>());
  if (!inserted) {
    return Status::AlreadyExists("view '" + name + "' already exists");
  }
  it->second->relation = relation;
  it->second->bases = std::move(bases);
  return Status::OK();
}

Status Database::Insert(const std::string& name, Tuple tuple,
                        Timestamp texp) {
  EXPDB_ASSIGN_OR_RETURN(Relation * rel, GetRelation(name));
  return rel->Insert(std::move(tuple), texp);
}

Result<bool> Database::Erase(const std::string& name, const Tuple& tuple) {
  EXPDB_ASSIGN_OR_RETURN(Relation * rel, GetRelation(name));
  return rel->Erase(tuple);
}

Status Database::DropRelation(const std::string& name) {
  if (relations_.erase(name) == 0) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

}  // namespace expdb
