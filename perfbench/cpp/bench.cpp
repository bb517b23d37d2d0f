#include "bench.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{0};
std::atomic<std::uint64_t> g_next_group{0};
std::atomic<std::uint64_t> g_dropped{0};

// Buffers outlive their threads: the registry owns them, threads only
// hold a pointer.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;  // guarded

thread_local std::vector<Span>* t_buffer = nullptr;
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_group = 0;

std::vector<Span>& thread_buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<Span>>();
    buffer->reserve(4096);
    t_buffer = buffer.get();
    const std::scoped_lock lock(g_buffers_mutex);
    g_buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

/// Nanoseconds since the recorder's epoch (process start).
std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch)
      .count();
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace

void Tracer::enable(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t Tracer::next_group() noexcept {
  return g_next_group.fetch_add(1, std::memory_order_relaxed) + 1;
}

Tracer::Group::Group(std::uint64_t id) noexcept : saved_(t_group) { t_group = id; }

Tracer::Group::~Group() { t_group = saved_; }

Tracer::Scope::Scope(const char* name) noexcept {
  if (!enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  span_.parent = t_parent;
  span_.group = t_group;
  t_parent = span_.id;
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_parent = span_.parent;
  std::vector<Span>& buffer = thread_buffer();
  if (buffer.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.push_back(span_);
}

std::vector<Span> Tracer::collect() {
  std::vector<Span> out;
  const std::scoped_lock lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) out.insert(out.end(), buffer->begin(), buffer->end());
  return out;
}

std::uint64_t Tracer::dropped() noexcept { return g_dropped.load(); }

void Results::add(const std::string& series, double value) {
  const std::scoped_lock lock(mutex_);
  series_[series].push_back(value);
}

void Results::merge(const std::string& series, const std::vector<double>& values) {
  const std::scoped_lock lock(mutex_);
  auto& dst = series_[series];
  dst.insert(dst.end(), values.begin(), values.end());
}

void Results::set(const std::string& name, double value) {
  const std::scoped_lock lock(mutex_);
  values_[name] = value;
}

void Results::check(bool ok, const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return;
  failed_.fetch_add(1, std::memory_order_relaxed);
  const std::scoped_lock lock(mutex_);
  if (errors_.size() < 20) errors_.push_back(what);
}

std::string Results::to_json(const std::string& header_json) const {
  const std::scoped_lock lock(mutex_);
  std::string out = "{";
  out += header_json;
  out += ",\"attempted\":";
  append_number(out, static_cast<double>(attempted_.load()));
  out += ",\"failed\":";
  append_number(out, static_cast<double>(failed_.load()));
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, errors_[i]);
  }
  out += "],\"values\":{";
  bool first = true;
  for (const auto& [name, v] : values_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_number(out, v);
  }
  out += "},\"series\":{";
  first = true;
  for (const auto& [name, values] : series_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out += ',';
      append_number(out, values[i]);
    }
    out += ']';
  }
  out += "}}";
  return out;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace perfbench
