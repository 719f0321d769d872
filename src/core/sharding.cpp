#include "core/sharding.hpp"

#include <algorithm>

#include "support/spec_text.hpp"
#include "support/thread_pool.hpp"

namespace rumor {

std::uint32_t resolve_shard_width(std::uint32_t shards_option) {
  if (shards_option == kShardsAuto) {
    return static_cast<std::uint32_t>(
        std::max<std::size_t>(1, shard_pool().worker_count()));
  }
  return std::max<std::uint32_t>(1, shards_option);
}

bool set_shards_option(std::uint32_t& field, std::string_view value) {
  if (value == "auto") {
    field = kShardsAuto;
    return true;
  }
  const auto v = spec_text::parse_magnitude(value);
  if (!v || *v == 0 || *v >= kShardsAuto) return false;
  field = static_cast<std::uint32_t>(*v);
  return true;
}

void format_shards_option(std::uint32_t shards, std::uint32_t defaults,
                          spec_text::KeyValWriter& out) {
  if (shards == defaults) return;
  if (shards == kShardsAuto) {
    out.add("shards", std::string_view{"auto"});
  } else {
    out.add("shards", static_cast<std::uint64_t>(shards));
  }
}

}  // namespace rumor
