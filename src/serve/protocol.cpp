#include "serve/protocol.hpp"

#include <algorithm>

#include "util/fault.hpp"

namespace hpcfail::serve {

namespace {

// The request/response verb table, sorted by verb.  FORMATS.md's "serve
// protocol" section documents one row per entry; hpcfail-lint's
// serve-protocol check keeps code and doc in sync in both directions, so a
// verb cannot ship undocumented and the doc cannot promise a verb the
// daemon does not answer.
constexpr VerbDef kVerbs[] = {
    {"causes", "root-cause breakdown and layer shares for the analysis window"},
    {"lead_time", "lead-time summary for the analysis window"},
    {"metrics", "metrics registry export, or null when metrics are dark"},
    {"node_health", "online-monitor health for one node (params: node)"},
    {"ping", "liveness probe, answers pong"},
    {"report", "markdown report slice (params: section; omit it to list sections)"},
    {"shutdown", "answer, then stop the serve loop after this request"},
    {"status", "store, window and epoch counters for the daemon"},
};

}  // namespace

std::span<const VerbDef> verbs() { return kVerbs; }

bool known_verb(std::string_view verb) noexcept {
  return std::any_of(std::begin(kVerbs), std::end(kVerbs),
                     [verb](const VerbDef& def) { return def.verb == verb; });
}

std::string_view to_string(ProtocolErrorKind kind) noexcept {
  switch (kind) {
    case ProtocolErrorKind::BadRequest: return "bad_request";
    case ProtocolErrorKind::UnknownVerb: return "unknown_verb";
    case ProtocolErrorKind::BadParams: return "bad_params";
    case ProtocolErrorKind::Oversized: return "oversized";
    case ProtocolErrorKind::Internal: return "internal";
  }
  return "?";
}

RequestParse parse_request(std::string_view line) {
  RequestParse out;
  if (line.size() > kMaxRequestBytes) {
    out.error = ProtocolErrorKind::Oversized;
    out.message = "request line of " + std::to_string(line.size()) +
                  " bytes exceeds the " + std::to_string(kMaxRequestBytes) +
                  "-byte limit";
    return out;
  }
  if (HPCFAIL_FAULT_SITE("serve.request.parse")) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "injected parse fault: request bytes torn in flight";
    return out;
  }
  std::optional<util::JsonValue> doc = util::JsonValue::parse(line);
  if (!doc.has_value()) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "request line is not valid JSON";
    return out;
  }
  if (!doc->is_object()) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "request must be a JSON object";
    return out;
  }
  const std::optional<std::uint64_t> id = doc->uint_member("id");
  if (id.has_value()) out.id = *id;
  if (!id.has_value()) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "request needs a non-negative integer \"id\"";
    return out;
  }
  const util::JsonValue* verb = doc->find("verb");
  if (verb == nullptr || !verb->is_string()) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "request needs a string \"verb\"";
    return out;
  }
  if (!known_verb(verb->as_string())) {
    out.error = ProtocolErrorKind::UnknownVerb;
    out.message = "unknown verb \"" + verb->as_string() + "\"";
    return out;
  }
  const util::JsonValue* params = doc->find("params");
  if (params != nullptr && !params->is_object() && !params->is_null()) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "\"params\" must be an object when present";
    return out;
  }
  Request req;
  req.id = *id;
  req.verb = verb->as_string();
  if (params != nullptr) req.params = *params;
  out.request = std::move(req);
  return out;
}

std::string ok_response(std::uint64_t id, std::string_view verb, std::uint64_t epoch,
                        std::string_view data_json) {
  std::string out;
  out.reserve(64 + data_json.size());
  out += "{\"id\":";
  util::append_json_number(out, id);
  out += ",\"ok\":true,\"verb\":";
  util::append_json_string(out, verb);
  out += ",\"epoch\":";
  util::append_json_number(out, epoch);
  out += ",\"data\":";
  out += data_json;
  out += "}";
  return out;
}

std::string error_response(std::uint64_t id, ProtocolErrorKind kind,
                           std::string_view message) {
  std::string out;
  out.reserve(64 + message.size());
  out += "{\"id\":";
  util::append_json_number(out, id);
  out += ",\"ok\":false,\"error\":{\"kind\":";
  util::append_json_string(out, to_string(kind));
  out += ",\"message\":";
  util::append_json_string(out, message);
  out += "}}";
  return out;
}

}  // namespace hpcfail::serve
