// Node allocation for the synthetic workload.
//
// Two policies mirror how real schedulers place jobs:
//   BladePacked - fill whole blades first (spatially contiguous), so an
//                 application-triggered chain takes out co-located nodes;
//   Scattered   - random free nodes anywhere, producing the paper's
//                 "spatially distant yet temporally correlated" failures
//                 (Observation 8).
#pragma once

#include <cstdint>
#include <vector>

#include "platform/topology.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hpcfail::jobs {

enum class AllocPolicy : std::uint8_t { BladePacked, Scattered };

class NodeAllocator {
 public:
  explicit NodeAllocator(const platform::Topology& topo);

  /// Tries to reserve `count` nodes over [start, end). Returns the nodes,
  /// or an empty vector when not enough are free at `start`.
  [[nodiscard]] std::vector<platform::NodeId> allocate(std::uint32_t count,
                                                       util::TimePoint start,
                                                       util::TimePoint end,
                                                       AllocPolicy policy, util::Rng& rng);

  /// Releases a node early (e.g. the node failed and was rebooted).
  void release(platform::NodeId node, util::TimePoint at) noexcept;

  /// Number of nodes free at `t`.
  [[nodiscard]] std::uint32_t free_count(util::TimePoint t) const noexcept;

 private:
  /// Lowers the bound of the blade holding `node` to `t` if `t` is earlier.
  void lower_blade_bound(platform::NodeId node, util::TimePoint t) noexcept;

  /// Exactly free_count(start), answered from the busy ledger: an
  /// allocation that cannot be met is refused before its walk, which would
  /// otherwise probe every node and fail.
  [[nodiscard]] std::uint32_t free_nodes_at(util::TimePoint start);

  /// One successful allocation still running at watermark_.
  struct Reservation {
    util::TimePoint end;
    std::uint32_t nodes = 0;
  };

  const platform::Topology& topo_;
  std::vector<util::TimePoint> free_at_;  ///< per node: when it becomes free
  /// Per blade: a lower bound on the free_at_ of its nodes.  A blade whose
  /// bound is later than `start` has no free node then, so the blade-packed
  /// walk skips it without probing.  The walk sets the bound to the exact
  /// earliest free_at_ when it probes a whole blade and finds it full;
  /// every write that moves a free_at_ earlier lowers it.
  std::vector<util::TimePoint> blade_free_at_;
  /// Busy ledger for non-decreasing starts (how a workload allocates):
  /// busy_ is a min-heap on end holding every node with free_at_ later
  /// than watermark_, busy_nodes_ their number.  A start before the
  /// watermark, or a release, rebuilds it from free_at_.
  std::vector<Reservation> busy_;
  util::TimePoint watermark_{0};
  std::uint32_t busy_nodes_ = 0;
  bool ledger_stale_ = false;
};

}  // namespace hpcfail::jobs
