#include "view/join_view.h"

namespace mvstore::view {

Status DeclareJoinView(store::Schema& schema, const JoinViewDef& def) {
  if (def.name.empty()) {
    return Status::InvalidArgument("join view needs a name");
  }
  store::ViewDef left;
  left.name = def.LeftViewName();
  left.base_table = def.left_table;
  left.view_key_column = def.left_join_column;
  left.materialized_columns = def.left_columns;
  MVSTORE_RETURN_IF_ERROR(schema.CreateView(left));

  store::ViewDef right;
  right.name = def.RightViewName();
  right.base_table = def.right_table;
  right.view_key_column = def.right_join_column;
  right.materialized_columns = def.right_columns;
  return schema.CreateView(right);
}

store::QuerySpec JoinQuerySpec(const JoinViewDef& def, const Value& join_key) {
  return store::QuerySpec::Join(def.LeftViewName(), def.RightViewName(),
                                join_key, def.left_columns,
                                def.right_columns);
}

}  // namespace mvstore::view
