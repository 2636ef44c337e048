#include "store/codec.h"

#include "common/hash.h"
#include "common/logging.h"

namespace mvstore::store {

namespace {

/// Appends the two-byte shard header when the view is actually sharded.
void AppendShardHeader(int shard, int shard_count, std::string& out) {
  if (shard_count <= 1) return;
  MVSTORE_CHECK(shard >= 0 && shard < shard_count)
      << "shard " << shard << " out of range for shard_count " << shard_count;
  out.push_back(kShardHeaderPrefix);
  out.push_back(static_cast<char>(kShardByteBase + shard));
}

}  // namespace

int ShardOfBaseKey(std::string_view base_key, int shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<int>(Hash64(base_key) %
                          static_cast<std::uint64_t>(shard_count));
}

void AppendEscapedComponent(std::string_view component, std::string& out) {
  for (char c : component) {
    if (c == kComponentSeparator) {
      out.push_back(kEscape);
      out.push_back('s');
    } else if (c == kEscape) {
      out.push_back(kEscape);
      out.push_back('e');
    } else {
      out.push_back(c);
    }
  }
}

std::string EscapeComponent(std::string_view component) {
  std::string out;
  out.reserve(component.size());
  AppendEscapedComponent(component, out);
  return out;
}

Key DeletedSentinelViewKey(std::string_view base_key) {
  Key out;
  out.reserve(base_key.size() + 1);
  out.push_back(kSentinelPrefix);
  out += base_key;
  return out;
}

bool IsSentinelViewKey(std::string_view view_key) {
  return !view_key.empty() && view_key[0] == kSentinelPrefix;
}

std::optional<std::string> UnescapeComponent(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    const char c = escaped[i];
    if (c == kComponentSeparator) return std::nullopt;
    if (c == kEscape) {
      if (i + 1 >= escaped.size()) return std::nullopt;
      const char next = escaped[++i];
      if (next == 's') {
        out.push_back(kComponentSeparator);
      } else if (next == 'e') {
        out.push_back(kEscape);
      } else {
        return std::nullopt;
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void ComposeViewRowKeyTo(std::string_view view_key, std::string_view base_key,
                         std::string& out) {
  AppendEscapedComponent(view_key, out);
  out.push_back(kComponentSeparator);
  AppendEscapedComponent(base_key, out);
}

Key ComposeViewRowKey(std::string_view view_key, std::string_view base_key) {
  Key out;
  out.reserve(view_key.size() + base_key.size() + 1);
  ComposeViewRowKeyTo(view_key, base_key, out);
  return out;
}

Key ViewPartitionPrefix(std::string_view view_key) {
  Key out;
  out.reserve(view_key.size() + 1);
  AppendEscapedComponent(view_key, out);
  out.push_back(kComponentSeparator);
  return out;
}

void ShardedViewRowKeyTo(std::string_view view_key, std::string_view base_key,
                         int shard, int shard_count, std::string& out) {
  AppendShardHeader(shard, shard_count, out);
  ComposeViewRowKeyTo(view_key, base_key, out);
}

Key ShardedViewRowKey(std::string_view view_key, std::string_view base_key,
                      int shard, int shard_count) {
  Key out;
  out.reserve(view_key.size() + base_key.size() + 3);
  ShardedViewRowKeyTo(view_key, base_key, shard, shard_count, out);
  return out;
}

Key ShardedViewPartitionPrefix(std::string_view view_key, int shard,
                               int shard_count) {
  Key out;
  out.reserve(view_key.size() + 3);
  AppendShardHeader(shard, shard_count, out);
  AppendEscapedComponent(view_key, out);
  out.push_back(kComponentSeparator);
  return out;
}

std::optional<int> ShardOfComposedKey(std::string_view key, int shard_count) {
  if (shard_count <= 1) return 0;
  if (key.size() < 2 || key[0] != kShardHeaderPrefix) return std::nullopt;
  const int shard = static_cast<unsigned char>(key[1]) -
                    static_cast<unsigned char>(kShardByteBase);
  if (shard < 0 || shard >= shard_count) return std::nullopt;
  return shard;
}

std::optional<std::pair<Key, Key>> SplitShardedViewRowKey(std::string_view key,
                                                          int shard_count) {
  if (shard_count <= 1) return SplitViewRowKey(key);
  if (!ShardOfComposedKey(key, shard_count).has_value()) return std::nullopt;
  return SplitViewRowKey(key.substr(2));
}

bool SplitViewRowKeyViews(std::string_view key, std::string_view* escaped_view,
                          std::string_view* escaped_base) {
  // Find the (only unescaped) separator.
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (key[i] == kEscape) {
      ++i;  // skip escaped byte
    } else if (key[i] == kComponentSeparator) {
      *escaped_view = key.substr(0, i);
      *escaped_base = key.substr(i + 1);
      return true;
    }
  }
  return false;
}

std::optional<std::pair<Key, Key>> SplitViewRowKey(std::string_view key) {
  std::string_view escaped_view;
  std::string_view escaped_base;
  if (!SplitViewRowKeyViews(key, &escaped_view, &escaped_base)) {
    return std::nullopt;
  }
  auto view_key = UnescapeComponent(escaped_view);
  auto base_key = UnescapeComponent(escaped_base);
  if (!view_key || !base_key) return std::nullopt;
  return std::make_pair(std::move(*view_key), std::move(*base_key));
}

std::string_view PartitionPrefixViewOf(std::string_view composed_key) {
  for (std::size_t i = 0; i < composed_key.size(); ++i) {
    if (composed_key[i] == kEscape) {
      ++i;
    } else if (composed_key[i] == kComponentSeparator) {
      return composed_key.substr(0, i + 1);
    }
  }
  return composed_key;
}

Key PartitionPrefixOf(const Key& composed_key) {
  return Key(PartitionPrefixViewOf(composed_key));
}

}  // namespace mvstore::store
