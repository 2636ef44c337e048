// Composite key encoding for view tables.
//
// A view row is identified by (view key, base key) — Definition 1 allows
// several view rows per view key, distinguished by the base key. The backing
// table stores each view row under one flat key:
//
//   Compose(kv, kB) = Escape(kv) + SEP + Escape(kB)
//
// with SEP escaped inside components, so that
//   * encoding is injective,
//   * lexicographic order groups all rows of one view key contiguously, and
//   * PartitionPrefix(kv) = Escape(kv) + SEP is a scan prefix that matches
//     exactly the rows with that view key (no accidental prefix collisions).
//
// Record placement for composite-key tables hashes only the partition prefix,
// so every row of a view key lands on the same replica set — a view read is
// a single-partition operation, which is the entire point of materialized
// views (Section I).

#ifndef MVSTORE_STORE_CODEC_H_
#define MVSTORE_STORE_CODEC_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/types.h"

namespace mvstore::store {

/// Separator and escape bytes (chosen to be rare in textual keys; arbitrary
/// binary keys are still handled correctly by escaping).
inline constexpr char kComponentSeparator = '\x01';
inline constexpr char kEscape = '\x02';

/// Reserved first byte of *deleted-row sentinel* view keys. When a base
/// row's view key is deleted, the deletion propagates as a view-key change
/// to the sentinel key for that base row: the versioned view keeps a hidden
/// live row there, so stale chains stay intact and a later re-assignment can
/// still find — and copy data from — the row. User view-key values must not
/// start with this byte (writes are rejected).
inline constexpr char kSentinelPrefix = '\x03';

/// Reserved first byte of *sharded* composed view-row keys. A view with
/// shard_count > 1 splits each view-key partition into sub-shards spread
/// over the ring: its composed keys carry a two-byte header
///
///   kShardHeaderPrefix + char(kShardByteBase + shard)
///
/// ahead of the usual Escape(kv) + SEP + Escape(kB). The header is part of
/// the partition prefix (PartitionPrefixViewOf stops at the first unescaped
/// separator, and neither header byte is SEP or the escape byte), so record
/// placement, anti-entropy, and membership streaming see each sub-shard as
/// an ordinary distinct partition with zero special-casing. Views with
/// shard_count <= 1 never emit the header — their layout is byte-identical
/// to the unsharded encoding.
inline constexpr char kShardHeaderPrefix = '\x04';

/// Offset added to the shard id inside the header byte, keeping it clear of
/// kComponentSeparator and kEscape for every legal shard id.
inline constexpr char kShardByteBase = '\x10';

/// Upper bound on ViewDef::shard_count (keeps the shard header a single
/// byte with room to spare; far beyond any sensible ring size).
inline constexpr int kMaxViewShards = 128;

/// The sub-shard owning `base_key`'s row family. Stable hash, so the live
/// row, its stale chain, and the sentinel anchor of one base key always land
/// in the same sub-shard. Returns 0 when shard_count <= 1.
int ShardOfBaseKey(std::string_view base_key, int shard_count);

/// The sentinel view key for `base_key` (unique per base row, so sentinel
/// rows spread over the ring like any other partition).
Key DeletedSentinelViewKey(std::string_view base_key);

/// True for sentinel view keys (hidden from all reads).
bool IsSentinelViewKey(std::string_view view_key);

/// Escapes one key component.
std::string EscapeComponent(std::string_view component);

/// Appends the escaped form of `component` to `out` — the allocation-free
/// building block: loops that compose many keys reuse one scratch buffer.
void AppendEscapedComponent(std::string_view component, std::string& out);

/// Inverse of EscapeComponent; nullopt on malformed input.
std::optional<std::string> UnescapeComponent(std::string_view escaped);

/// Flat storage key for the view row (view_key, base_key).
Key ComposeViewRowKey(std::string_view view_key, std::string_view base_key);

/// Appends Compose(view_key, base_key) to `out` without allocating a fresh
/// string (when `out`'s capacity suffices).
void ComposeViewRowKeyTo(std::string_view view_key, std::string_view base_key,
                         std::string& out);

/// Scan prefix matching exactly the rows with this view key.
Key ViewPartitionPrefix(std::string_view view_key);

/// Sharded flat storage key: Compose(view_key, base_key) prefixed with the
/// shard header when shard_count > 1; byte-identical to ComposeViewRowKey
/// when shard_count <= 1. `shard` must be in [0, shard_count).
Key ShardedViewRowKey(std::string_view view_key, std::string_view base_key,
                      int shard, int shard_count);

/// Appending form of ShardedViewRowKey (the propagation hot path re-encodes
/// into one scratch buffer per chain hop).
void ShardedViewRowKeyTo(std::string_view view_key, std::string_view base_key,
                         int shard, int shard_count, std::string& out);

/// Scan prefix matching exactly sub-shard `shard` of this view key.
/// Byte-identical to ViewPartitionPrefix when shard_count <= 1.
Key ShardedViewPartitionPrefix(std::string_view view_key, int shard,
                               int shard_count);

/// Splits a (possibly sharded) composed key back into (view_key, base_key),
/// stripping the shard header when shard_count > 1; nullopt if `key` is not
/// a well-formed composite for that shard_count. Equivalent to
/// SplitViewRowKey when shard_count <= 1.
std::optional<std::pair<Key, Key>> SplitShardedViewRowKey(std::string_view key,
                                                          int shard_count);

/// The shard id encoded in a composed key of a view with this shard_count;
/// nullopt when the header is missing or out of range. Always 0 when
/// shard_count <= 1.
std::optional<int> ShardOfComposedKey(std::string_view key, int shard_count);

/// Splits a composed key back into (view_key, base_key); nullopt if `key` is
/// not a well-formed composite.
std::optional<std::pair<Key, Key>> SplitViewRowKey(std::string_view key);

/// Zero-copy split: points `escaped_view` / `escaped_base` at the
/// still-escaped component slices of `key` (valid while `key`'s bytes live).
/// Returns false when `key` has no separator. Callers that only route or
/// compare avoid the two unescape allocations of SplitViewRowKey.
bool SplitViewRowKeyViews(std::string_view key, std::string_view* escaped_view,
                          std::string_view* escaped_base);

/// The partition component of a key in a composite-key table (everything up
/// to and including the separator). For non-composite tables callers use the
/// whole key.
Key PartitionPrefixOf(const Key& composed_key);

/// Zero-copy form of PartitionPrefixOf: a view into `composed_key` (valid
/// while the key outlives it). The routing hot path hashes this slice
/// directly instead of materializing a substring per placement decision.
std::string_view PartitionPrefixViewOf(std::string_view composed_key);

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_CODEC_H_
