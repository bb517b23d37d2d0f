// Compressed node-list notation as used by Slurm:
//   nid[00012-00015,00040,00100-00103]  or  node[0001-0004,0012]
// A single node renders without brackets (nid00042).  Scheduler log lines
// carry job allocations in this form; the parser expands them back.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "platform/ids.hpp"
#include "platform/topology.hpp"

namespace hpcfail::loggen {

/// Appends the compressed form of a node list (need not be sorted;
/// duplicates are dropped) to `out`.  `naming` selects the nid/node prefix
/// and digit width.
void append_node_list(std::string& out, std::span<const platform::NodeId> nodes,
                      platform::NamingScheme naming);

/// Expands the compressed form. Returns nullopt on malformed input or
/// when any id is >= `node_count` (a corrupted list, e.g. two nids fused
/// by a lost comma, must not size per-node tables by a garbage id).
[[nodiscard]] std::optional<std::vector<platform::NodeId>> expand_node_list(
    std::string_view text, std::uint32_t node_count) noexcept;

}  // namespace hpcfail::loggen
