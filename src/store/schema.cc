#include "store/schema.h"

#include <algorithm>
#include <utility>

#include "store/codec.h"

namespace mvstore::store {

namespace {

bool IsReservedColumn(const ColumnName& col) {
  return col.rfind("__", 0) == 0;
}

}  // namespace

const char* AggregateFnName(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kNone:
      return "none";
    case AggregateFn::kCount:
      return "count";
    case AggregateFn::kSum:
      return "sum";
    case AggregateFn::kMin:
      return "min";
    case AggregateFn::kMax:
      return "max";
  }
  return "?";
}

ColumnName ViewDef::AggregateOutputColumn() const {
  if (!IsAggregate()) return ColumnName();
  std::string out = AggregateFnName(aggregate);
  out.push_back('(');
  out += aggregate == AggregateFn::kCount ? "*" : aggregate_column;
  out.push_back(')');
  return out;
}

bool ViewDef::Affects(const ColumnName& column) const {
  return column == view_key_column || IsMaterialized(column);
}

bool ViewDef::IsMaterialized(const ColumnName& column) const {
  return std::find(materialized_columns.begin(), materialized_columns.end(),
                   column) != materialized_columns.end();
}

bool ViewDef::Selects(const storage::Row& base_row) const {
  if (!selection.has_value()) return true;
  const std::optional<Value> value = base_row.GetValue(selection->column);
  return value.has_value() && *value == selection->equals;
}

storage::Row ViewDef::Project(const storage::Row& row,
                              const std::vector<ColumnName>& columns) const {
  storage::Row cells;
  for (const ColumnName& col : columns.empty() ? materialized_columns
                                               : columns) {
    if (auto cell = row.Get(col); cell && !cell->tombstone) {
      cells.Apply(col, *cell);
    }
  }
  return cells;
}

ViewDefBuilder::ViewDefBuilder(std::string name) {
  def_.name = std::move(name);
}

ViewDefBuilder& ViewDefBuilder::Base(std::string base_table) {
  def_.base_table = std::move(base_table);
  return *this;
}

ViewDefBuilder& ViewDefBuilder::Key(ColumnName view_key_column) {
  def_.view_key_column = std::move(view_key_column);
  return *this;
}

ViewDefBuilder& ViewDefBuilder::Materialize(ColumnName column) {
  def_.materialized_columns.push_back(std::move(column));
  return *this;
}

ViewDefBuilder& ViewDefBuilder::Materialize(std::vector<ColumnName> columns) {
  for (ColumnName& col : columns) {
    def_.materialized_columns.push_back(std::move(col));
  }
  return *this;
}

ViewDefBuilder& ViewDefBuilder::Select(ColumnName column, Value equals) {
  def_.selection = SelectionDef{std::move(column), std::move(equals)};
  return *this;
}

ViewDefBuilder& ViewDefBuilder::Shards(int shard_count) {
  def_.shard_count = shard_count;
  return *this;
}

ViewDefBuilder& ViewDefBuilder::Aggregate(AggregateFn fn, ColumnName column) {
  def_.aggregate = fn;
  def_.aggregate_column = std::move(column);
  return *this;
}

StatusOr<ViewDef> ViewDefBuilder::Build() const {
  if (def_.name.empty()) {
    return Status::InvalidArgument("view name must not be empty");
  }
  if (def_.base_table.empty()) {
    return Status::InvalidArgument("view must name a base table");
  }
  if (def_.view_key_column.empty()) {
    return Status::InvalidArgument("view must name a view-key column");
  }
  if (IsReservedColumn(def_.view_key_column)) {
    return Status::InvalidArgument("column names starting with __ are reserved");
  }
  for (const ColumnName& col : def_.materialized_columns) {
    if (IsReservedColumn(col)) {
      return Status::InvalidArgument(
          "column names starting with __ are reserved");
    }
  }
  if (def_.shard_count < 1) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (def_.shard_count > kMaxViewShards) {
    return Status::InvalidArgument("shard_count exceeds kMaxViewShards");
  }
  ViewDef def = def_;
  if (def.IsAggregate()) {
    // The aggregate column is the view's ONLY materialized column (Build
    // adds it below): extra projected columns would make the folded record
    // ambiguous, and the fold is the only read surface an aggregate view
    // exposes.
    if (!def.materialized_columns.empty()) {
      return Status::InvalidArgument(
          "aggregate views take no Materialize() columns (the aggregate "
          "column is materialized implicitly)");
    }
    if (def.aggregate == AggregateFn::kCount) {
      if (!def.aggregate_column.empty()) {
        return Status::InvalidArgument("count(*) takes no aggregate column");
      }
    } else {
      if (def.aggregate_column.empty()) {
        return Status::InvalidArgument(
            "sum/min/max aggregates must name the aggregated column");
      }
      if (IsReservedColumn(def.aggregate_column)) {
        return Status::InvalidArgument(
            "column names starting with __ are reserved");
      }
      if (def.aggregate_column == def.view_key_column) {
        return Status::InvalidArgument(
            "cannot aggregate the view-key column itself");
      }
      def.materialized_columns.push_back(def.aggregate_column);
    }
  }
  return def;
}

Status Schema::CreateTable(TableDef def) {
  if (def.name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  if (tables_.count(def.name) != 0) {
    return Status::AlreadyExists("table '" + def.name + "' already exists");
  }
  tables_.emplace(def.name, std::move(def));
  return Status::OK();
}

Status Schema::CreateIndex(IndexDef def) {
  const TableDef* table = GetTable(def.table);
  if (table == nullptr) {
    return Status::NotFound("no table '" + def.table + "' to index");
  }
  if (table->is_view_backing) {
    return Status::InvalidArgument("cannot index a view");
  }
  if (FindIndex(def.table, def.column) != nullptr) {
    return Status::AlreadyExists("index on " + def.table + "." + def.column +
                                 " already exists");
  }
  indexes_.push_back(std::move(def));
  return Status::OK();
}

Status Schema::CreateView(ViewDef def) {
  if (def.name.empty()) {
    return Status::InvalidArgument("view name must not be empty");
  }
  const TableDef* base = GetTable(def.base_table);
  if (base == nullptr) {
    return Status::NotFound("no base table '" + def.base_table + "'");
  }
  if (base->is_view_backing) {
    return Status::InvalidArgument("views on views are not supported");
  }
  if (auto it = views_.find(def.name); it != views_.end()) {
    // Re-sharding an existing view would need a backing-table rewrite the
    // store does not implement; name the refusal so callers can tell it
    // apart from an accidental duplicate definition.
    if (it->second.shard_count != def.shard_count) {
      return Status::InvalidArgument(
          "cannot change shard_count of existing view '" + def.name + "'");
    }
    return Status::AlreadyExists("name '" + def.name + "' already in use");
  }
  if (tables_.count(def.name) != 0) {
    return Status::AlreadyExists("name '" + def.name + "' already in use");
  }
  if (def.view_key_column.empty()) {
    return Status::InvalidArgument("view must name a view-key column");
  }
  auto reserved = [](const ColumnName& col) {
    return col.rfind("__", 0) == 0;
  };
  if (reserved(def.view_key_column)) {
    return Status::InvalidArgument("column names starting with __ are reserved");
  }
  for (const ColumnName& col : def.materialized_columns) {
    if (reserved(col)) {
      return Status::InvalidArgument(
          "column names starting with __ are reserved");
    }
  }
  if (def.shard_count < 1) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (def.shard_count > kMaxViewShards) {
    return Status::InvalidArgument("shard_count exceeds kMaxViewShards");
  }
  if (def.IsMaterialized(def.view_key_column)) {
    return Status::InvalidArgument(
        "the view-key column is implicit; do not also materialize it");
  }
  if (def.IsAggregate()) {
    // Re-validate the aggregate shape for hand-constructed defs (builder
    // output always satisfies this; see ViewDefBuilder::Build).
    if (def.aggregate == AggregateFn::kCount) {
      if (!def.aggregate_column.empty() || !def.materialized_columns.empty()) {
        return Status::InvalidArgument(
            "count(*) views carry no aggregate or materialized columns");
      }
    } else if (def.aggregate_column.empty() ||
               def.materialized_columns !=
                   std::vector<ColumnName>{def.aggregate_column}) {
      return Status::InvalidArgument(
          "sum/min/max views must materialize exactly the aggregate column");
    }
  }
  if (def.selection.has_value() && !def.Affects(def.selection->column)) {
    return Status::InvalidArgument(
        "selection column must be the view key or a materialized column");
  }
  // The backing table that stores the (versioned) view rows.
  TableDef backing;
  backing.name = def.name;
  backing.composite_keys = true;
  backing.is_view_backing = true;
  tables_.emplace(backing.name, std::move(backing));
  views_.emplace(def.name, std::move(def));
  return Status::OK();
}

const TableDef* Schema::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const ViewDef* Schema::GetView(const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

std::vector<IndexDef> Schema::IndexesOn(const std::string& table) const {
  std::vector<IndexDef> result;
  for (const auto& index : indexes_) {
    if (index.table == table) result.push_back(index);
  }
  return result;
}

const IndexDef* Schema::FindIndex(const std::string& table,
                                  const ColumnName& column) const {
  for (const auto& index : indexes_) {
    if (index.table == table && index.column == column) return &index;
  }
  return nullptr;
}

std::vector<const ViewDef*> Schema::ViewsOn(const std::string& table) const {
  std::vector<const ViewDef*> result;
  for (const auto& [name, view] : views_) {
    if (view.base_table == table) result.push_back(&view);
  }
  return result;
}

std::vector<std::string> Schema::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, def] : tables_) names.push_back(name);
  return names;
}

}  // namespace mvstore::store
