// Catalog: tables, native secondary indexes, and view definitions.
//
// The schema is static cluster metadata shared by all servers (the paper
// does not study online DDL; views are "defined" before the workload runs).
// View *definitions* live here because the store's coordinator must know,
// for every base-table Put, which views are affected and which columns are
// view keys; the maintenance *algorithms* live in src/view/.

#ifndef MVSTORE_STORE_SCHEMA_H_
#define MVSTORE_STORE_SCHEMA_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "common/types.h"
#include "storage/row.h"

namespace mvstore::store {

// Bookkeeping columns of versioned-view rows (Definition 3 plus the
// concurrency additions of Section IV-F). Application columns never clash
// with these names because of the "__" prefix, which CreateView rejects in
// user column names.
inline constexpr char kViewBaseKeyColumn[] = "__B";  ///< Definition 3's B
inline constexpr char kViewNextColumn[] = "__next";  ///< stale-chain pointer
inline constexpr char kViewInitColumn[] = "__init";  ///< accessibility marker
inline constexpr char kViewSelectionColumn[] = "__ds";    ///< selection failed

struct TableDef {
  std::string name;
  /// Composite-key tables (view backing tables) are partitioned by the first
  /// key component instead of the whole key (see store/codec.h).
  bool composite_keys = false;
  /// True for view backing tables: client Puts are rejected (views are not
  /// updateable, Section III) and client Gets go through the view read path.
  bool is_view_backing = false;
};

struct IndexDef {
  std::string table;
  ColumnName column;
};

/// Optional relational selection on a view (the extension Section III calls
/// easy): a base row contributes to the view only while `column == equals`.
/// `column` must be the view-key column or a view-materialized column, so
/// that every propagated update carries enough information to decide
/// membership.
struct SelectionDef {
  ColumnName column;
  Value equals;
};

/// Aggregation function of an aggregate view (ISSUE 10). The view's rows
/// keep one per-base-key *sub-aggregate* cell each — the contribution of
/// that base row — merged LWW like any other materialized cell, so
/// duplicated or reordered propagation deltas converge without coordination
/// (the same row-count-fold idea that fixed the PR 4 anti-entropy digests:
/// store order-insensitive per-element state, fold at read time). The
/// coordinator folds the partition scan into the single aggregate record.
enum class AggregateFn {
  kNone,   ///< not an aggregate view (plain projection)
  kCount,  ///< COUNT(*): number of base rows under the view key
  kSum,    ///< SUM(column) over parseable integer cells
  kMin,    ///< MIN(column) over parseable integer cells
  kMax,    ///< MAX(column) over parseable integer cells
};

/// Printable name of the function ("count", "sum", ...).
const char* AggregateFnName(AggregateFn fn);

/// Definition 1: a view over `base_table`, keyed by the value of
/// `view_key_column`, carrying `materialized_columns` copies.
struct ViewDef {
  std::string name;  // also the backing table's name
  std::string base_table;
  ColumnName view_key_column;
  std::vector<ColumnName> materialized_columns;
  std::optional<SelectionDef> selection;

  /// Sub-shards per view-key partition (ISSUE 9). 1 = the classic layout:
  /// every row of a view key on one replica set, byte-identical keys. > 1
  /// splits each view-key partition into `shard_count` ring partitions
  /// (shard chosen by base-key hash, see store/codec.h) so hot view keys
  /// spread their read load; ViewGets then scatter-gather over the shards.
  int shard_count = 1;

  /// Aggregate views (ISSUE 10): kNone = plain projection. For kSum/kMin/
  /// kMax, `aggregate_column` names the aggregated base column and is the
  /// view's only materialized column (the per-base-key sub-aggregate cell);
  /// kCount needs no column — membership of the base key under the view key
  /// IS the sub-aggregate. Maintenance is byte-identical to projection
  /// views; only the read path folds.
  AggregateFn aggregate = AggregateFn::kNone;
  ColumnName aggregate_column;

  bool IsAggregate() const { return aggregate != AggregateFn::kNone; }
  /// The column name the folded aggregate record carries, e.g. "count(*)"
  /// or "sum(qty)". Empty for non-aggregate views.
  ColumnName AggregateOutputColumn() const;

  /// True if a Put touching `column` requires maintenance of this view.
  bool Affects(const ColumnName& column) const;
  bool IsMaterialized(const ColumnName& column) const;

  /// True when `base_row` passes the selection (always, without one).
  bool Selects(const storage::Row& base_row) const;
  /// The live cells of `row` among `columns` (empty = the materialized
  /// columns): the record Definition 1 derives from a base row, or the one
  /// a view row exposes. Tombstoned cells are dropped.
  storage::Row Project(const storage::Row& row,
                       const std::vector<ColumnName>& columns = {}) const;
};

/// Fluent construction for ViewDef — the supported way to define views
/// (positional aggregate initialization breaks every time ViewDef grows a
/// field). Build() validates what can be checked without the catalog;
/// Schema::CreateView re-validates against existing tables.
///
///   auto def = ViewDefBuilder("by_country")
///                  .Base("users").Key("country")
///                  .Materialize("name").Materialize("email")
///                  .Select("status", "active")
///                  .Shards(8)
///                  .Build();
///
/// Aggregate views name a fold instead of projected columns:
///
///   auto cnt = ViewDefBuilder("orders_per_cust")
///                  .Base("orders").Key("cust")
///                  .Aggregate(AggregateFn::kCount)
///                  .Build();
///   auto sum = ViewDefBuilder("qty_per_cust")
///                  .Base("orders").Key("cust")
///                  .Aggregate(AggregateFn::kSum, "qty")
///                  .Build();
class ViewDefBuilder {
 public:
  explicit ViewDefBuilder(std::string name);

  ViewDefBuilder& Base(std::string base_table);
  ViewDefBuilder& Key(ColumnName view_key_column);
  /// Appends one materialized column; call repeatedly.
  ViewDefBuilder& Materialize(ColumnName column);
  ViewDefBuilder& Materialize(std::vector<ColumnName> columns);
  ViewDefBuilder& Select(ColumnName column, Value equals);
  ViewDefBuilder& Shards(int shard_count);
  /// Declares the view an aggregate (ISSUE 10): kCount takes no column,
  /// kSum/kMin/kMax aggregate `column`. Mutually exclusive with explicit
  /// Materialize() calls — Build() materializes the aggregate column itself
  /// so the projection machinery (maintenance, bootstrap, scrub) carries the
  /// per-base-key sub-aggregate cells unchanged.
  ViewDefBuilder& Aggregate(AggregateFn fn, ColumnName column = ColumnName());

  /// Validates and returns the definition: non-empty name/base/key, no
  /// "__"-prefixed (reserved) columns, 1 <= shard_count <= kMaxViewShards,
  /// and the aggregate rules documented on Aggregate().
  StatusOr<ViewDef> Build() const;

 private:
  ViewDef def_;
};

class Schema {
 public:
  Status CreateTable(TableDef def);
  Status CreateIndex(IndexDef def);
  Status CreateView(ViewDef def);

  const TableDef* GetTable(const std::string& name) const;
  const ViewDef* GetView(const std::string& name) const;

  /// Indexes defined on `table` (native secondary indexes).
  std::vector<IndexDef> IndexesOn(const std::string& table) const;
  const IndexDef* FindIndex(const std::string& table,
                            const ColumnName& column) const;

  /// Views whose base table is `table`.
  std::vector<const ViewDef*> ViewsOn(const std::string& table) const;

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, TableDef> tables_;
  std::vector<IndexDef> indexes_;
  std::map<std::string, ViewDef> views_;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_SCHEMA_H_
