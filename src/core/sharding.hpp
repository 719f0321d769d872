// Shared grammar + policy for the frontier-sharded round kernels.
//
// `shards=` is the one knob: absent (0) keeps the serial legacy engine and
// its byte-pinned golden trajectories; `shards=auto` turns the sharded
// engine on for graphs at or above kShardAutoThreshold vertices;
// `shards=N` (N >= 1) turns it on unconditionally. The sharded engine is a
// DIFFERENT engine — its draws come from the addressable ShardPlane, so
// its trajectories differ from legacy (exactly like engine=counter walks)
// — but within the engine the trajectory depends only on whether sharding
// is ON, never on the partition count: every random decision is keyed by
// its logical slot, and the shard-major merge visits candidates in global
// slot order. shards=1 therefore IS the serial reference the determinism
// tests compare 2/4/7-way runs against, and `auto` can pick its width from
// the machine without breaking reproducibility.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "graph/graph.hpp"
#include "support/philox.hpp"

namespace rumor {

namespace spec_text {
class KeyValWriter;
}

// Sentinel stored in an options struct's `shards` field for `shards=auto`.
inline constexpr std::uint32_t kShardsAuto = 0xFFFFFFFFu;

// `shards=auto` enables the sharded engine iff the graph has at least this
// many vertices (below it, per-round fan-out overhead beats the win).
inline constexpr std::uint64_t kShardAutoThreshold = std::uint64_t{1} << 22;

// Whether the sharded engine is on for this (option, graph size) pair.
// Pure in its inputs — never consults worker count or machine state, so
// the engine choice (and with it the trajectory) is machine-independent.
[[nodiscard]] constexpr bool sharding_enabled(std::uint32_t shards_option,
                                              std::uint64_t n) {
  if (shards_option == 0) return false;
  if (shards_option == kShardsAuto) return n >= kShardAutoThreshold;
  return true;
}

// Execution width for an enabled sharded run: explicit N uses N partitions,
// auto matches the ambient shard pool's worker count. Width is pure
// execution policy — any width produces the identical trajectory.
[[nodiscard]] std::uint32_t resolve_shard_width(std::uint32_t shards_option);

// Parses `shards=auto|N` (N >= 1; 0 is rejected — "absent" is the only
// spelling of the legacy engine, keeping the text round-trip unique).
[[nodiscard]] bool set_shards_option(std::uint32_t& field,
                                     std::string_view value);

// Round-trip formatting: emits nothing at the default (0), `auto` for the
// sentinel, the number otherwise.
void format_shards_option(std::uint32_t shards, std::uint32_t defaults,
                          spec_text::KeyValWriter& out);

// One shard's dense caller pass (push or pull callers) over the slots
// [begin, end) of `phase`: calls body(i, callers[i], draws) in ascending
// slot order, where `draws` is the pass's SlotBatch and the body takes
// draws.at(i) when slot i draws. Seq-0 blocks are filled 64 slots at a
// time and each caller's row is prefetched a few slots ahead, so a caller
// costs neither a scalar Philox block nor a cold row miss. `acc` is a
// graph/access.hpp policy.
template <class Access, class Body>
void for_each_caller(const Access& acc, const ShardPlane& plane,
                     std::uint32_t phase, const Vertex* callers,
                     std::size_t begin, std::size_t end, Body&& body) {
  // As in the walk kernel's irregular pipeline: the offsets entry 16 slots
  // ahead, the row 4 slots ahead (reading the by-then cached offset).
  constexpr std::size_t kDegreeAhead = 16;
  constexpr std::size_t kRowAhead = 4;
  SlotBatch draws(plane, phase, begin, end);
  for (std::size_t i = begin; i < end; ++i) {
    if (i + kDegreeAhead < end) acc.prefetch_degree(callers[i + kDegreeAhead]);
    if (i + kRowAhead < end) acc.prefetch_row(callers[i + kRowAhead]);
    body(i, callers[i], draws);
  }
}

}  // namespace rumor
