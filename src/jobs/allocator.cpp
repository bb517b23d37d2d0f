#include "jobs/allocator.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace hpcfail::jobs {

namespace {
/// Heap order for the busy ledger: the earliest end on top.
constexpr auto ends_later = [](const auto& a, const auto& b) noexcept { return a.end > b.end; };
}  // namespace

NodeAllocator::NodeAllocator(const platform::Topology& topo)
    : topo_(topo),
      free_at_(topo.node_count(), util::TimePoint{0}),
      blade_free_at_(topo.blade_count(), util::TimePoint{0}) {}

std::vector<platform::NodeId> NodeAllocator::allocate(std::uint32_t count,
                                                      util::TimePoint start,
                                                      util::TimePoint end, AllocPolicy policy,
                                                      util::Rng& rng) {
  std::vector<platform::NodeId> picked;
  if (count == 0 || count > topo_.node_count()) return picked;
  picked.reserve(count);

  if (policy == AllocPolicy::BladePacked) {
    // Walk blades from a random offset, taking whole free blades first.
    const std::uint32_t blades = topo_.blade_count();
    const auto offset = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(blades) - 1));
    if (free_nodes_at(start) < count) return {};
    std::uint32_t b = offset;
    for (std::uint32_t step = 0; step < blades && picked.size() < count; ++step) {
      if (blade_free_at_[b] <= start) {
        const std::size_t before = picked.size();
        util::TimePoint earliest{std::numeric_limits<std::int64_t>::max()};
        for (const auto node : topo_.nodes_on_blade(platform::BladeId{b})) {
          if (picked.size() >= count) break;
          if (free_at_[node.value] <= start) {
            picked.push_back(node);
          } else {
            earliest = std::min(earliest, free_at_[node.value]);
          }
        }
        // Nothing taken means every node was probed and busy: the bound
        // tightens to the exact earliest free time.
        if (picked.size() == before) blade_free_at_[b] = earliest;
      }
      if (++b == blades) b = 0;
    }
  } else {
    // Random scatter: random start, stride coprime with n so the probe
    // visits every node exactly once.  The walk advances by stride % n
    // and wraps with one compare, the same visit order as
    // (offset + step * stride) % n without a division per probe.
    const std::uint32_t n = topo_.node_count();
    const auto offset =
        static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto stride = static_cast<std::uint32_t>(rng.uniform_int(1, 257));
    while (std::gcd(stride, n) != 1) ++stride;
    if (free_nodes_at(start) < count) return {};
    const std::uint32_t advance = stride % n;
    std::uint32_t node = offset;
    for (std::uint32_t step = 0; step < n && picked.size() < count; ++step) {
      if (free_at_[node] <= start) picked.push_back(platform::NodeId{node});
      node += advance;
      if (node >= n) node -= n;
    }
  }

  if (picked.size() < count) return {};  // not enough capacity right now
  for (const auto node : picked) free_at_[node.value] = end;
  // The picked nodes were free at start, so each blade bound is already at
  // or below start; only an end before start can undercut it.
  if (end < start) {
    for (const auto node : picked) lower_blade_bound(node, end);
  }
  if (end > start) {  // watermark_ == start: free_nodes_at just ran
    busy_.push_back({end, count});
    std::push_heap(busy_.begin(), busy_.end(), ends_later);
    busy_nodes_ += count;
  }
  return picked;
}

std::uint32_t NodeAllocator::free_nodes_at(util::TimePoint start) {
  if (ledger_stale_ || start < watermark_) {
    busy_.clear();
    for (const auto f : free_at_) {
      if (f > start) busy_.push_back({f, 1});
    }
    std::make_heap(busy_.begin(), busy_.end(), ends_later);
    busy_nodes_ = static_cast<std::uint32_t>(busy_.size());
    ledger_stale_ = false;
  }
  while (!busy_.empty() && busy_.front().end <= start) {
    busy_nodes_ -= busy_.front().nodes;
    std::pop_heap(busy_.begin(), busy_.end(), ends_later);
    busy_.pop_back();
  }
  watermark_ = start;
  return topo_.node_count() - busy_nodes_;
}

void NodeAllocator::release(platform::NodeId node, util::TimePoint at) noexcept {
  if (node.valid() && node.value < free_at_.size()) {
    if (at < free_at_[node.value]) {
      free_at_[node.value] = at;
      lower_blade_bound(node, at);
      ledger_stale_ = true;
    }
  }
}

void NodeAllocator::lower_blade_bound(platform::NodeId node, util::TimePoint t) noexcept {
  auto& bound = blade_free_at_[topo_.blade_of(node).value];
  bound = std::min(bound, t);
}

std::uint32_t NodeAllocator::free_count(util::TimePoint t) const noexcept {
  std::uint32_t n = 0;
  for (const auto f : free_at_) {
    if (f <= t) ++n;
  }
  return n;
}

}  // namespace hpcfail::jobs
