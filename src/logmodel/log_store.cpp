#include "logmodel/log_store.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

#include "util/trace.hpp"

namespace hpcfail::logmodel {

namespace {

bool time_less(const LogRecord& a, const LogRecord& b) noexcept { return a.time < b.time; }

/// "This record carries no such key" for the key extractors below.  Each
/// spells out its has_*() test: `r.has_node() ? r.node.value : -1` would
/// convert -1 to this same value by accident, and an index that forgot
/// the test would size itself by it.
constexpr std::uint32_t kNoKey = 0xffffffffu;

using Index = util::CsrIndex<std::uint32_t>;

/// One CSR index of LogStore::appended.  Rows [0, cut) are base's rows
/// unchanged; `base_tail` is base's rows from the cut on and `merged_tail`
/// the result's (starting at row `cut`).  The key count is the larger of
/// `min_keys`, base's and the merged tail's, exactly as build_indexes
/// would size it over all rows.
template <class KeyOf>
Index splice_index(const Index& base, std::uint32_t cut, std::span<const LogRecord> base_tail,
                   std::span<const LogRecord> merged_tail, std::uint32_t min_keys,
                   KeyOf key_of) {
  const auto base_keys =
      static_cast<std::uint32_t>(base.offsets.empty() ? 0 : base.offsets.size() - 1);
  std::uint32_t keys = std::max(min_keys, base_keys);
  for (const LogRecord& r : merged_tail) {
    if (const std::uint32_t k = key_of(r); k != kNoKey) keys = std::max(keys, k + 1);
  }
  Index out;
  if (keys == 0) return out;

  // kept[k]: key k's base entries below the cut.  Each run is ascending,
  // so they are the run's prefix: the run minus the base-tail rows of k.
  std::vector<std::uint32_t> kept(keys, 0);
  for (std::uint32_t k = 0; k < base_keys; ++k) kept[k] = base.offsets[k + 1] - base.offsets[k];
  for (const LogRecord& r : base_tail) {
    if (const std::uint32_t k = key_of(r); k != kNoKey) --kept[k];
  }
  out.offsets.assign(std::size_t{keys} + 1, 0);
  for (std::uint32_t k = 0; k < keys; ++k) out.offsets[k + 1] = kept[k];
  for (const LogRecord& r : merged_tail) {
    if (const std::uint32_t k = key_of(r); k != kNoKey) ++out.offsets[k + 1];
  }
  for (std::size_t k = 1; k < out.offsets.size(); ++k) out.offsets[k] += out.offsets[k - 1];
  out.entries.resize(out.offsets.back());

  // Copy each kept prefix, then turn kept[] into the fill cursor for the
  // merged tail, whose rows are appended in order so every run stays
  // time-ordered.
  for (std::uint32_t k = 0; k < keys; ++k) {
    if (kept[k] != 0) {
      std::copy_n(base.entries.begin() + base.offsets[k], kept[k],
                  out.entries.begin() + out.offsets[k]);
    }
    kept[k] += out.offsets[k];
  }
  for (std::uint32_t j = 0; j < merged_tail.size(); ++j) {
    if (const std::uint32_t k = key_of(merged_tail[j]); k != kNoKey) {
      out.entries[kept[k]++] = cut + j;
    }
  }
  return out;
}

}  // namespace

LogStore::LogStore(std::vector<LogRecord> records, SymbolTable symbols)
    : records_(std::move(records)), symbols_(std::move(symbols)) {
  finalized_ = false;
  finalize();
}

LogStore LogStore::appended(const LogStore& base, std::vector<LogRecord> fresh,
                           SymbolTable symbols) {
  util::TraceSpan span("hpcfail.store.append");
  base.require_finalized();
  std::stable_sort(fresh.begin(), fresh.end(), time_less);

  // Base rows at or before the earliest fresh time precede every fresh
  // record in the oracle's stable order (ties keep base first), so the
  // result starts with exactly base[0, cut).
  const std::size_t n = base.records_.size();
  const std::size_t cut =
      fresh.empty() ? n
                    : static_cast<std::size_t>(
                          std::upper_bound(base.times_.begin(), base.times_.end(),
                                           fresh.front().time.usec) -
                          base.times_.begin());
  const auto at = static_cast<std::ptrdiff_t>(cut);
  const auto base_cut = base.records_.begin() + at;
  const std::size_t total = n + fresh.size();

  LogStore out;
  out.symbols_ = std::move(symbols);
  out.records_.reserve(total);
  out.records_.insert(out.records_.end(), base.records_.begin(), base_cut);
  // std::merge takes from its first range on ties: base wins.
  std::merge(base_cut, base.records_.end(), fresh.begin(), fresh.end(),
             std::back_inserter(out.records_), time_less);

  const std::span<const LogRecord> base_tail(base.records_.data() + cut, n - cut);
  const std::span<const LogRecord> merged_tail(out.records_.data() + cut, total - cut);
  out.times_.reserve(total);
  out.types_.reserve(total);
  out.times_.insert(out.times_.end(), base.times_.begin(), base.times_.begin() + at);
  out.types_.insert(out.types_.end(), base.types_.begin(), base.types_.begin() + at);
  for (const LogRecord& r : merged_tail) {
    out.times_.push_back(r.time.usec);
    out.types_.push_back(r.type);
  }

  const auto cut32 = static_cast<std::uint32_t>(cut);
  out.by_node_ = splice_index(base.by_node_, cut32, base_tail, merged_tail, 0,
                              [](const LogRecord& r) {
                                return r.has_node() ? r.node.value : kNoKey;
                              });
  out.by_blade_ = splice_index(base.by_blade_, cut32, base_tail, merged_tail, 0,
                               [](const LogRecord& r) {
                                 return r.has_blade() ? r.blade.value : kNoKey;
                               });
  out.by_cabinet_ = splice_index(base.by_cabinet_, cut32, base_tail, merged_tail, 0,
                                 [](const LogRecord& r) {
                                   return r.has_cabinet() ? r.cabinet.value : kNoKey;
                                 });
  out.by_type_ = splice_index(base.by_type_, cut32, base_tail, merged_tail,
                              total == 0 ? 0 : static_cast<std::uint32_t>(kEventTypeCount),
                              [](const LogRecord& r) {
                                return static_cast<std::uint32_t>(r.type);
                              });
  out.collect_nodes();
  return out;
}

void LogStore::add(LogRecord r) {
  finalized_ = false;
  records_.push_back(r);
}

void LogStore::finalize() {
  if (finalized_) return;
  sort_by_time();
  build_indexes();
  finalized_ = true;
}

void LogStore::sort_by_time() {
  util::TraceSpan span("hpcfail.store.sort");
  // Records arrive as a handful of long ascending runs (each source file
  // is time-sorted, so ingest appends one run per source give or take
  // chunk seams).  A full stable_sort pays n log n even on that shape;
  // detecting the runs and stably merging them is one linear pass plus
  // ~log(runs) compares per record, and a plain scan when the records are
  // already sorted.
  std::vector<std::size_t> bounds;  // ascending-run boundaries
  bounds.push_back(0);
  for (std::size_t i = 1; i < records_.size(); ++i) {
    if (time_less(records_[i], records_[i - 1])) bounds.push_back(i);
  }
  if (bounds.size() == 1) return;
  bounds.push_back(records_.size());

  // Bottom-up natural merge: fold adjacent run pairs in place until one
  // run remains.  std::inplace_merge is stable (ties take the left, i.e.
  // earlier, range first) and only ever pairs contiguous segments, so the
  // result is exactly std::stable_sort's order.  In place because
  // libstdc++'s adaptive temp buffer is at most half a pair, which keeps
  // peak RSS at stable_sort's level; a full spare buffer held across the
  // passes measurably lifted it.
  while (bounds.size() > 2) {
    std::vector<std::size_t> next;
    next.reserve(bounds.size() / 2 + 2);
    next.push_back(0);
    std::size_t i = 0;
    for (; i + 2 < bounds.size(); i += 2) {
      std::inplace_merge(records_.begin() + static_cast<std::ptrdiff_t>(bounds[i]),
                         records_.begin() + static_cast<std::ptrdiff_t>(bounds[i + 1]),
                         records_.begin() + static_cast<std::ptrdiff_t>(bounds[i + 2]),
                         time_less);
      next.push_back(bounds[i + 2]);
    }
    if (i + 1 < bounds.size()) next.push_back(bounds[i + 1]);  // odd run out
    bounds = std::move(next);
  }
}

void LogStore::build_indexes() {
  const std::size_t n = records_.size();

  times_.resize(n);
  types_.resize(n);

  // CSR build in three dense passes: (1) key ranges + type counts (fused
  // with the time/type column extraction — every pass over the 64-byte
  // records is real memory traffic), (2) per-key counts into
  // offsets[key + 1], (3) prefix-sum, then fill entries walking records in
  // order so every per-key run stays time-ordered.  Exact-sized flat
  // arrays, no per-key heap blocks.
  by_node_ = CsrIndex{};
  by_blade_ = CsrIndex{};
  by_cabinet_ = CsrIndex{};
  by_type_ = CsrIndex{};
  std::uint32_t node_keys = 0;
  std::uint32_t blade_keys = 0;
  std::uint32_t cabinet_keys = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const LogRecord& r = records_[i];
    times_[i] = r.time.usec;
    types_[i] = r.type;
    if (r.has_node()) node_keys = std::max(node_keys, r.node.value + 1);
    if (r.has_blade()) blade_keys = std::max(blade_keys, r.blade.value + 1);
    if (r.has_cabinet()) cabinet_keys = std::max(cabinet_keys, r.cabinet.value + 1);
  }
  if (node_keys != 0) by_node_.offsets.assign(std::size_t{node_keys} + 1, 0);
  if (blade_keys != 0) by_blade_.offsets.assign(std::size_t{blade_keys} + 1, 0);
  if (cabinet_keys != 0) by_cabinet_.offsets.assign(std::size_t{cabinet_keys} + 1, 0);
  if (n != 0) by_type_.offsets.assign(kEventTypeCount + 1, 0);

  // An empty offsets array implies no record carries that key, so the
  // guarded subscripts below are never reached for it.
  for (const LogRecord& r : records_) {
    if (r.has_node()) ++by_node_.offsets[r.node.value + 1];
    if (r.has_blade()) ++by_blade_.offsets[r.blade.value + 1];
    if (r.has_cabinet()) ++by_cabinet_.offsets[r.cabinet.value + 1];
    ++by_type_.offsets[static_cast<std::size_t>(r.type) + 1];
  }
  const auto prefix_sum = [](CsrIndex& idx) {
    for (std::size_t k = 1; k < idx.offsets.size(); ++k) idx.offsets[k] += idx.offsets[k - 1];
    idx.entries.resize(idx.offsets.empty() ? 0 : idx.offsets.back());
  };
  prefix_sum(by_node_);
  prefix_sum(by_blade_);
  prefix_sum(by_cabinet_);
  prefix_sum(by_type_);

  std::vector<std::uint32_t> node_cur = by_node_.offsets;
  std::vector<std::uint32_t> blade_cur = by_blade_.offsets;
  std::vector<std::uint32_t> cabinet_cur = by_cabinet_.offsets;
  std::vector<std::uint32_t> type_cur = by_type_.offsets;
  for (std::uint32_t i = 0; i < n; ++i) {
    const LogRecord& r = records_[i];
    if (r.has_node()) by_node_.entries[node_cur[r.node.value]++] = i;
    if (r.has_blade()) by_blade_.entries[blade_cur[r.blade.value]++] = i;
    if (r.has_cabinet()) by_cabinet_.entries[cabinet_cur[r.cabinet.value]++] = i;
    by_type_.entries[type_cur[static_cast<std::size_t>(r.type)]++] = i;
  }

  collect_nodes();
}

void LogStore::collect_nodes() {
  // Distinct node ids fall out of the offsets in ascending order for free.
  nodes_.clear();
  for (std::size_t k = 1; k < by_node_.offsets.size(); ++k) {
    if (by_node_.offsets[k] > by_node_.offsets[k - 1]) {
      nodes_.push_back(platform::NodeId{static_cast<std::uint32_t>(k - 1)});
    }
  }
}

void LogStore::require_finalized() const {
  if (!finalized_) {
    throw std::logic_error(
        "LogStore: query on a non-finalized store (call finalize() after add(); "
        "records are unsorted and indexes stale until then)");
  }
}

util::TimePoint LogStore::first_time() const {
  require_finalized();
  return records_.empty() ? util::TimePoint{} : records_.front().time;
}

util::TimePoint LogStore::last_time() const {
  require_finalized();
  return records_.empty() ? util::TimePoint{} : records_.back().time;
}

std::span<const LogRecord> LogStore::range(util::TimePoint begin,
                                           util::TimePoint end) const {
  require_finalized();
  // Binary search the dense time column, not the ~48-byte record rows.
  const auto lo = std::lower_bound(times_.begin(), times_.end(), begin.usec);
  const auto hi = std::lower_bound(lo, times_.end(), end.usec);
  return {records_.data() + (lo - times_.begin()),
          static_cast<std::size_t>(hi - lo)};
}

std::span<const std::uint32_t> LogStore::filter_window(std::span<const std::uint32_t> index,
                                                       util::TimePoint begin,
                                                       util::TimePoint end) const {
  // The index is time-ordered because records_ is; binary search on it,
  // comparing through the contiguous time column.
  const auto lo = std::lower_bound(index.begin(), index.end(), begin.usec,
                                   [this](std::uint32_t i, std::int64_t t) {
                                     return times_[i] < t;
                                   });
  const auto hi = std::lower_bound(lo, index.end(), end.usec,
                                   [this](std::uint32_t i, std::int64_t t) {
                                     return times_[i] < t;
                                   });
  return {index.data() + (lo - index.begin()), static_cast<std::size_t>(hi - lo)};
}

std::span<const std::uint32_t> LogStore::node_range(platform::NodeId node,
                                                    util::TimePoint begin,
                                                    util::TimePoint end) const {
  require_finalized();
  return filter_window(by_node_.of(node.value), begin, end);
}

std::span<const std::uint32_t> LogStore::blade_range(platform::BladeId blade,
                                                     util::TimePoint begin,
                                                     util::TimePoint end) const {
  require_finalized();
  return filter_window(by_blade_.of(blade.value), begin, end);
}

std::span<const std::uint32_t> LogStore::cabinet_range(platform::CabinetId cabinet,
                                                       util::TimePoint begin,
                                                       util::TimePoint end) const {
  require_finalized();
  return filter_window(by_cabinet_.of(cabinet.value), begin, end);
}

std::span<const std::uint32_t> LogStore::type_range(EventType type, util::TimePoint begin,
                                                    util::TimePoint end) const {
  require_finalized();
  // CsrIndex::of bounds-checks the key, so the empty default-constructed
  // store needs no special case here.
  return filter_window(by_type_.of(static_cast<std::uint32_t>(type)), begin, end);
}

std::size_t LogStore::count_of_type(EventType type) const {
  require_finalized();
  return by_type_.of(static_cast<std::uint32_t>(type)).size();
}

std::span<const std::uint32_t> LogStore::node_index(platform::NodeId node) const {
  require_finalized();
  return by_node_.of(node.value);
}

std::span<const std::uint32_t> LogStore::type_index(EventType type) const {
  require_finalized();
  return by_type_.of(static_cast<std::uint32_t>(type));
}

const std::vector<platform::NodeId>& LogStore::nodes() const {
  require_finalized();
  return nodes_;
}

}  // namespace hpcfail::logmodel
