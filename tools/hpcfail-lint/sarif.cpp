#include "sarif.hpp"

#include <set>
#include <string_view>
#include <vector>

#include "lint.hpp"
#include "util/json.hpp"

namespace hpcfail::lint {

namespace {

[[nodiscard]] std::string_view sarif_level(Severity severity) {
  switch (severity) {
    case Severity::Error: return "error";
    case Severity::Warning: return "warning";
    case Severity::Note: return "note";
  }
  return "error";
}

}  // namespace

std::string to_sarif(const Report& report) {
  // Rule list: every registered check, plus ad-hoc rules for any diagnostic
  // whose check the registry does not know (synthetic "usage" errors).
  struct Rule {
    std::string id;
    std::string description;
  };
  std::vector<Rule> rules;
  std::set<std::string> known;
  for (const auto& info : all_checks()) {
    rules.push_back({info.name, info.description});
    known.insert(info.name);
  }
  for (const auto& d : report.diagnostics) {
    if (known.insert(d.check).second) {
      rules.push_back({d.check, "ad-hoc rule (not in the check registry)"});
    }
  }

  std::string out;
  out += "{\n";
  out += "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
         "master/Schemata/sarif-schema-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n";
  out += "    {\n";
  out += "      \"tool\": {\n";
  out += "        \"driver\": {\n";
  out += "          \"name\": \"hpcfail-lint\",\n";
  out += "          \"informationUri\": \"tools/hpcfail-lint\",\n";
  out += "          \"rules\": [\n";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += "            {\n";
    out += "              \"id\": ";
    util::append_json_string(out, rules[i].id);
    out += ",\n              \"shortDescription\": { \"text\": ";
    util::append_json_string(out, rules[i].description);
    out += " }\n";
    out += i + 1 < rules.size() ? "            },\n" : "            }\n";
  }
  out += "          ]\n";
  out += "        }\n";
  out += "      },\n";
  out += "      \"results\": [\n";
  const auto& diags = report.diagnostics;
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const auto& d = diags[i];
    // SARIF requires startLine >= 1; line 0 means "whole file" internally.
    const std::size_t line = d.line == 0 ? 1 : d.line;
    out += "        {\n";
    out += "          \"ruleId\": ";
    util::append_json_string(out, d.check);
    out += ",\n";
    out += "          \"level\": \"" + std::string(sarif_level(d.severity)) + "\",\n";
    out += "          \"message\": { \"text\": ";
    util::append_json_string(out, d.message);
    out += " },\n";
    out += "          \"locations\": [\n";
    out += "            {\n";
    out += "              \"physicalLocation\": {\n";
    out += "                \"artifactLocation\": { \"uri\": ";
    util::append_json_string(out, d.file);
    out += " },\n";
    out += "                \"region\": { \"startLine\": " + std::to_string(line) +
           " }\n";
    out += "              }\n";
    out += "            }\n";
    out += "          ]\n";
    out += i + 1 < diags.size() ? "        },\n" : "        }\n";
  }
  out += "      ]\n";
  out += "    }\n";
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace hpcfail::lint
