// Equi-join views, in the style of PNUTS Remote View Tables.
//
// Section III: "our approach could be extended to support equi-join views in
// much the same way as is done in PNUTS". The PNUTS construction co-locates
// the rows of both join sides by the join-key value; the join itself is
// computed at read time from the co-located fragments. We realize it with
// the machinery already in place: an equi-join view over A ⋈ B on
// A.ja = B.jb is DECLARED as two single-table projection views
//
//   <name>_left   over A, view key = ja, materializing `left_columns`
//   <name>_right  over B, view key = jb, materializing `right_columns`
//
// Both are incrementally and asynchronously maintained by the ordinary
// Algorithm 1-3 pipeline (so every correctness property the tests establish
// for single-table views — Definition 2/3 convergence, deletes, session
// guarantees — carries over side by side). A join read issues the two
// single-partition view Gets for the join-key value and pairs the live
// records (inner join).

#ifndef MVSTORE_VIEW_JOIN_VIEW_H_
#define MVSTORE_VIEW_JOIN_VIEW_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "store/client.h"
#include "store/schema.h"

namespace mvstore::view {

struct JoinViewDef {
  std::string name;  ///< prefix of the two physical views
  std::string left_table;
  ColumnName left_join_column;
  std::vector<ColumnName> left_columns;  ///< materialized from the left side
  std::string right_table;
  ColumnName right_join_column;
  std::vector<ColumnName> right_columns;

  std::string LeftViewName() const { return name + "_left"; }
  std::string RightViewName() const { return name + "_right"; }
};

/// Declares the join view's two physical views into `schema`. Call before
/// constructing the Cluster, like any other DDL.
Status DeclareJoinView(store::Schema& schema, const JoinViewDef& def);

/// The Query route for this join view: Client::Query(JoinQuerySpec(def,
/// key), ...) delivers the joined pairs in ReadResult::joined.
/// `options.columns` is ignored for joins — each side reads its own
/// materialized columns.
store::QuerySpec JoinQuerySpec(const JoinViewDef& def, const Value& join_key);

}  // namespace mvstore::view

#endif  // MVSTORE_VIEW_JOIN_VIEW_H_
