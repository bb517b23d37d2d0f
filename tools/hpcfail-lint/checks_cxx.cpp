// Token-level semantic checks over the C++ sources (cxx_model.hpp lexer).
//
// Each check encodes one class of production bug this repo has actually
// shipped and fixed:
//   - capture-lifetime: PR 1's ThreadPool use-after-scope (queued chunks
//     holding a dangling reference after an early rethrow),
//   - dangling-view: the hazard class PR 5 introduced repo-wide when
//     LogStore/SymbolTable grew std::span/std::string_view accessors,
//   - finalize-protocol: the fail-loud std::logic_error contract for
//     querying non-finalized stores (PR 2/3),
//   - raw-sync: concurrency/ownership primitives that bypass the
//     instrumented util::ThreadPool (whose metrics caught PR 4's ABA
//     use-after-free),
//   - hot-path-format: per-field snprintf / temporary-string formatting on
//     the render hot path, which once made rendering a fifth of ingest
//     speed,
//   - hot-path-metrics: per-request registry lookups in the serve layer,
//     which once cut the daemon's query throughput with metrics on to
//     under a quarter of the dark daemon's.
//
// The checks are deliberately token-level, not AST-level: they trade
// soundness for zero build dependencies and sub-second repo-wide runtime,
// and lean on mandatory reasoned suppressions for the (rare) safe cases.
#include <array>
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cxx_model.hpp"
#include "lint.hpp"

namespace hpcfail::lint {

namespace {

using Tokens = std::vector<Token>;

constexpr std::array<const char*, 4> kScanDirs = {"src", "bench", "examples", "tools"};

/// The lint's own sources and fixtures quote violations in messages/tests.
[[nodiscard]] bool lint_own_source(const std::string& rel) {
  return rel.rfind("tools/hpcfail-lint/", 0) == 0;
}

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::Punct && t.text == text;
}

[[nodiscard]] bool is_ident(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::Identifier && t.text == text;
}

/// Skips a balanced `<...>` starting at tokens[i] == "<"; returns the index
/// one past the closing ">", or `i` unchanged when tokens[i] is not "<".
/// Gives up (returns end) if the run looks unbalanced — callers treat that
/// as "not a template argument list".
[[nodiscard]] std::size_t skip_angles(const Tokens& toks, std::size_t i) {
  if (i >= toks.size() || !is_punct(toks[i], "<")) return i;
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (is_punct(toks[j], "<")) ++depth;
    else if (is_punct(toks[j], ">")) {
      if (--depth == 0) return j + 1;
    } else if (is_punct(toks[j], ";") || is_punct(toks[j], "{")) {
      return toks.size();  // statement ended first: was a comparison
    }
  }
  return toks.size();
}

// ---------------------------------------------------------------------------
// Check: capture-lifetime
// ---------------------------------------------------------------------------

void scan_capture_lifetime(const SourceFile& file, Report& report) {
  const std::string check = "capture-lifetime";
  const Tokens& toks = file.tokens;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "submit")) continue;
    if (!is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = matching_close(toks, i + 1);
    if (close >= toks.size()) continue;

    // Lambda intros inside the argument list: a '[' directly after '(' or
    // ',' (array subscripts follow an identifier/']'/')' instead).
    for (std::size_t j = i + 2; j < close; ++j) {
      if (!is_punct(toks[j], "[")) continue;
      if (!(is_punct(toks[j - 1], "(") || is_punct(toks[j - 1], ","))) continue;
      const std::size_t intro_end = matching_close(toks, j);
      if (intro_end >= toks.size()) break;
      bool by_ref = false;
      for (std::size_t k = j + 1; k < intro_end && !by_ref; ++k) {
        by_ref = is_punct(toks[k], "&") || is_punct(toks[k], "&&");
      }
      if (by_ref) {
        emit(file, toks[j].line, check,
             "lambda passed to ThreadPool::submit() captures by reference; a "
             "queued task can outlive the enclosing scope (the PR 1 "
             "use-after-scope class) — capture by value/move or justify with "
             "allow(capture-lifetime)",
             report);
      }
      j = intro_end;
    }
    i = close;
  }
}

// ---------------------------------------------------------------------------
// Check: dangling-view
// ---------------------------------------------------------------------------

/// Owning local/parameter types whose views must not escape the function.
[[nodiscard]] bool owning_type(std::string_view name) {
  return name == "string" || name == "vector" || name == "ostringstream" ||
         name == "stringstream" || name == "array";
}

/// Records every `std::<owning-type> [<...>] NAME` declaration in
/// [begin, end) into `names` (covers both by-value parameters in a
/// signature range and locals in a body range).
void collect_owning_names(const Tokens& toks, std::size_t begin, std::size_t end,
                          std::set<std::string_view>& names) {
  for (std::size_t i = begin; i + 2 < end; ++i) {
    if (!is_ident(toks[i], "std") || !is_punct(toks[i + 1], "::")) continue;
    if (toks[i + 2].kind != Token::Kind::Identifier || !owning_type(toks[i + 2].text)) {
      continue;
    }
    std::size_t j = skip_angles(toks, i + 3);
    if (j == toks.size()) j = i + 3;
    if (j < end && toks[j].kind == Token::Kind::Identifier) {
      names.insert(toks[j].text);
    }
  }
}

void scan_view_returning_functions(const SourceFile& file, Report& report) {
  const std::string check = "dangling-view";
  const Tokens& toks = file.tokens;

  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    // `std::string_view` or `std::span<...>` in return-type position:
    // followed by a function name, a parameter list, then a body.
    if (!is_ident(toks[i], "std") || !is_punct(toks[i + 1], "::")) continue;
    const bool is_view = is_ident(toks[i + 2], "string_view");
    const bool is_span = is_ident(toks[i + 2], "span");
    if (!is_view && !is_span) continue;
    const std::string_view view_type = is_view ? "std::string_view" : "std::span";

    std::size_t j = i + 3;
    if (is_span) {
      const std::size_t after = skip_angles(toks, j);
      if (after == toks.size() || after == j) continue;  // span without args: not a type use
      j = after;
    }
    if (j >= toks.size() || toks[j].kind != Token::Kind::Identifier) continue;
    const std::string_view fn_name = toks[j].text;
    if (j + 1 >= toks.size() || !is_punct(toks[j + 1], "(")) continue;
    const std::size_t params_close = matching_close(toks, j + 1);
    if (params_close >= toks.size()) continue;

    // A definition follows: only const/noexcept/attributes may precede '{'.
    std::size_t body_open = toks.size();
    for (std::size_t k = params_close + 1; k < toks.size(); ++k) {
      if (is_punct(toks[k], "{")) {
        body_open = k;
        break;
      }
      const bool qualifier = is_ident(toks[k], "const") || is_ident(toks[k], "noexcept") ||
                             is_ident(toks[k], "override") || is_ident(toks[k], "final") ||
                             is_punct(toks[k], "[") || is_punct(toks[k], "]") ||
                             is_ident(toks[k], "nodiscard");
      if (!qualifier) break;
    }
    if (body_open == toks.size()) continue;
    const std::size_t body_close = matching_close(toks, body_open);
    if (body_close >= toks.size()) continue;

    std::set<std::string_view> owned;
    collect_owning_names(toks, j + 2, params_close, owned);       // by-value params
    collect_owning_names(toks, body_open + 1, body_close, owned);  // locals

    for (std::size_t k = body_open + 1; k + 1 < body_close; ++k) {
      if (!is_ident(toks[k], "return")) continue;
      const Token& ret = toks[k + 1];
      if (ret.kind != Token::Kind::Identifier || owned.count(ret.text) == 0) continue;
      const Token& next = toks[k + 2];
      if (is_punct(next, ";") || is_punct(next, ".") || is_punct(next, "[")) {
        std::string message = "'";
        message += fn_name;
        message += "' returns a ";
        message += view_type;
        message += " derived from local/parameter '";
        message += ret.text;
        message +=
            "'; the view dangles when the function returns — return an owning "
            "type or a view of caller-owned data";
        emit(file, ret.line, check, message, report);
      }
    }
    i = body_open;  // resume after the signature; nested defs are rescanned anyway
  }
}

void scan_temporary_view_bindings(const SourceFile& file, Report& report) {
  const std::string check = "dangling-view";
  // Members of LogStore/SymbolTable returning views or references into the
  // object; calling one on a temporary dangles at the end of the statement.
  static const std::set<std::string_view> kViewMembers = {
      "view",        "detail",      "times",      "types",      "records",
      "symbols",     "range",       "node_range", "blade_range", "cabinet_range",
      "type_range",  "node_index",  "type_index", "nodes",       "row"};
  static const std::set<std::string_view> kClasses = {"LogStore", "SymbolTable"};
  const Tokens& toks = file.tokens;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Identifier || kClasses.count(toks[i].text) == 0) {
      continue;
    }
    // A `LogStore(...)` / `LogStore{...}` temporary.
    if (!is_punct(toks[i + 1], "(") && !is_punct(toks[i + 1], "{")) continue;
    // Skip constructor definitions (`LogStore::LogStore(`) and class
    // definitions (`class LogStore {`).
    if (i >= 2 && is_punct(toks[i - 1], "::") && toks[i - 2].text == toks[i].text) {
      continue;
    }
    if (i >= 1 && (is_ident(toks[i - 1], "class") || is_ident(toks[i - 1], "struct"))) {
      continue;
    }
    const std::size_t open = i + 1;
    const std::size_t close = matching_close(toks, open);
    if (close + 3 >= toks.size()) continue;
    if (!is_punct(toks[close + 1], ".")) continue;
    const Token& member = toks[close + 2];
    if (member.kind != Token::Kind::Identifier || kViewMembers.count(member.text) == 0) {
      continue;
    }
    if (!is_punct(toks[close + 3], "(")) continue;
    emit(file, toks[close + 1].line, check,
         "binds '" + std::string(member.text) + "()' off a temporary " +
             std::string(toks[i].text) +
             "; the view dangles at the end of the full expression — name the " +
             std::string(toks[i].text) + " first",
         report);
  }
}

// ---------------------------------------------------------------------------
// Check: finalize-protocol
// ---------------------------------------------------------------------------

/// True when [begin, end) mentions any token of the finalize guard
/// vocabulary (require_finalized(), the finalized_ flag / finalized()
/// accessor, or a thrown std::logic_error).
[[nodiscard]] bool mentions_guard(const Tokens& toks, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Identifier) continue;
    const std::string_view t = toks[i].text;
    if (t == "require_finalized" || t == "finalized_" || t == "finalized" ||
        t == "logic_error") {
      return true;
    }
  }
  return false;
}

/// Finds `Class::name(` definitions in `toks` and returns true when any
/// such definition's body mentions the guard vocabulary.  `found` reports
/// whether a definition exists at all.
[[nodiscard]] bool out_of_class_guarded(const Tokens& toks, std::string_view cls,
                                        std::string_view name, bool& found) {
  found = false;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!is_ident(toks[i], cls) || !is_punct(toks[i + 1], "::") ||
        !is_ident(toks[i + 2], name) || !is_punct(toks[i + 3], "(")) {
      continue;
    }
    const std::size_t params_close = matching_close(toks, i + 3);
    if (params_close >= toks.size()) continue;
    // Skip to the body (over const/noexcept/member-init lists).
    std::size_t body_open = toks.size();
    for (std::size_t k = params_close + 1; k < toks.size(); ++k) {
      if (is_punct(toks[k], "{")) {
        body_open = k;
        break;
      }
      if (is_punct(toks[k], ";")) break;  // a declaration, not a definition
    }
    if (body_open == toks.size()) continue;
    found = true;
    const std::size_t body_close = matching_close(toks, body_open);
    if (mentions_guard(toks, body_open, std::min(body_close + 1, toks.size()))) {
      return true;
    }
  }
  return false;
}

void finalize_protocol_for_class(SourceTree& tree, const char* cls, const char* hpp_path,
                                 std::initializer_list<const char*> cpp_paths,
                                 Report& report) {
  const std::string check = "finalize-protocol";
  const SourceFile* hpp = tree.source(hpp_path);
  if (hpp == nullptr) return;  // fixture trees carry only the classes they exercise
  // A class's out-of-line members may be split across several .cpp files
  // (LogStore's persistence lives in store_snapshot.cpp); a guard in any of
  // them counts.
  std::vector<const Tokens*> cpp_tokens;
  for (const char* cpp_path : cpp_paths) {
    const SourceFile* cpp = tree.source(cpp_path);
    if (cpp != nullptr) cpp_tokens.push_back(&cpp->tokens);
  }
  const Tokens& toks = hpp->tokens;

  // Locate `class <cls> ... {`.
  std::size_t body_open = toks.size();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "class") || !is_ident(toks[i + 1], cls)) continue;
    for (std::size_t j = i + 2; j < toks.size(); ++j) {
      if (is_punct(toks[j], "{")) {
        body_open = j;
        break;
      }
      if (is_punct(toks[j], ";")) break;  // forward declaration
    }
    if (body_open != toks.size()) break;
  }
  if (body_open == toks.size()) return;
  const std::size_t body_close = matching_close(toks, body_open);
  if (body_close >= toks.size()) return;
  const int member_depth = toks[body_open].depth + 1;

  // The established alternative to per-accessor guards: a constructor that
  // fails loud (std::logic_error) on a non-finalized store at construction —
  // AnalysisContext's protocol.  Such a class needs no per-member guards.
  // Merely touching finalized_ in the constructor (LogStore's does, to reset
  // the flag) is not a guard: the throw is what makes it one.
  {
    for (const Tokens* file_toks : cpp_tokens) {
      const Tokens& cpp_toks = *file_toks;
      for (std::size_t i = 0; i + 3 < cpp_toks.size(); ++i) {
        if (!is_ident(cpp_toks[i], cls) || !is_punct(cpp_toks[i + 1], "::") ||
            !is_ident(cpp_toks[i + 2], cls) || !is_punct(cpp_toks[i + 3], "(")) {
          continue;
        }
        const std::size_t params_close = matching_close(cpp_toks, i + 3);
        if (params_close >= cpp_toks.size()) continue;
        for (std::size_t k = params_close + 1; k < cpp_toks.size(); ++k) {
          if (is_punct(cpp_toks[k], ";")) break;
          if (is_punct(cpp_toks[k], "{")) {
            const std::size_t ctor_close = matching_close(cpp_toks, k);
            for (std::size_t g = k; g < ctor_close && g < cpp_toks.size(); ++g) {
              if (is_ident(cpp_toks[g], "logic_error")) return;
            }
            break;
          }
        }
      }
    }
    // Inline constructor bodies in the header count too.
    for (std::size_t i = body_open + 1; i + 1 < body_close; ++i) {
      if (toks[i].depth != member_depth || !is_ident(toks[i], cls) ||
          !is_punct(toks[i + 1], "(")) {
        continue;
      }
      if (i >= 1 && is_punct(toks[i - 1], "~")) continue;
      const std::size_t params_close = matching_close(toks, i + 1);
      if (params_close >= toks.size()) continue;
      for (std::size_t k = params_close + 1; k < body_close; ++k) {
        if (is_punct(toks[k], ";")) break;
        if (is_punct(toks[k], "{")) {
          const std::size_t ctor_close = matching_close(toks, k);
          if (mentions_guard(toks, k, std::min(ctor_close + 1, toks.size())) &&
              ctor_close < toks.size()) {
            // Guarding at construction requires the throw, not just the flag.
            for (std::size_t g = k; g < ctor_close; ++g) {
              if (is_ident(toks[g], "logic_error")) return;
            }
          }
          break;
        }
      }
    }
  }

  // Keywords that look like `name(` but are not member declarations.
  static const std::set<std::string_view> kNotMembers = {
      "if", "for", "while", "switch", "return", "static_assert",
      "sizeof", "decltype", "noexcept", "alignof", "catch", "throw"};

  bool is_public = false;  // class scope defaults private
  for (std::size_t i = body_open + 1; i < body_close; ++i) {
    const Token& t = toks[i];
    if (t.depth != member_depth) continue;
    if (t.kind == Token::Kind::Identifier && i + 1 < body_close &&
        is_punct(toks[i + 1], ":") &&
        (t.text == "public" || t.text == "private" || t.text == "protected")) {
      is_public = (t.text == "public");
      ++i;
      continue;
    }
    if (!is_public) continue;
    if (t.kind != Token::Kind::Identifier || i + 1 >= body_close) continue;

    // Member-function declaration: `name(` at member depth.
    std::string name(t.text);
    std::size_t paren = i + 1;
    if (name == "operator") {  // operator[]/operator== etc: puncts up to '('
      while (paren < body_close && !is_punct(toks[paren], "(")) {
        name += toks[paren].text;
        ++paren;
      }
      if (paren >= body_close) continue;
    }
    if (!is_punct(toks[paren], "(")) continue;
    if (kNotMembers.count(name) != 0) continue;
    if (name == cls) {  // constructor (handled above)
      i = matching_close(toks, paren);
      continue;
    }
    if (i >= 1 && is_punct(toks[i - 1], "~")) {  // destructor
      i = matching_close(toks, paren);
      continue;
    }
    const std::size_t params_close = matching_close(toks, paren);
    if (params_close >= toks.size()) continue;

    // Classify the declaration tail: deleted/defaulted, inline body, or `;`.
    bool guarded = false;
    bool skip = false;
    std::size_t tail_end = params_close;
    for (std::size_t k = params_close + 1; k < body_close; ++k) {
      if (is_punct(toks[k], "=") && k + 1 < body_close &&
          (is_ident(toks[k + 1], "delete") || is_ident(toks[k + 1], "default"))) {
        skip = true;
      }
      if (is_punct(toks[k], "{")) {
        const std::size_t inline_close = matching_close(toks, k);
        guarded = mentions_guard(toks, k, std::min(inline_close + 1, toks.size()));
        tail_end = inline_close;
        break;
      }
      if (is_punct(toks[k], ";")) {
        for (const Tokens* file_toks : cpp_tokens) {
          bool found = false;
          if (out_of_class_guarded(*file_toks, cls, name, found)) {
            guarded = true;
            break;
          }
        }
        tail_end = k;
        break;
      }
    }
    if (!skip && !guarded) {
      emit(*hpp, t.line, check,
           "public " + std::string(cls) + "::" + std::string(name) +
               "() reads store state without a require_finalized()/finalized() "
               "guard and " + std::string(cls) +
               " does not fail loud at construction; throw std::logic_error on "
               "non-finalized access or justify with allow(finalize-protocol)",
           report);
    }
    i = tail_end;
  }
}

// ---------------------------------------------------------------------------
// Check: raw-sync
// ---------------------------------------------------------------------------

void scan_raw_sync(const SourceFile& file, Report& report) {
  const std::string check = "raw-sync";
  static const std::set<std::string_view> kBareThreading = {"thread", "jthread",
                                                            "async"};
  const Tokens& toks = file.tokens;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::Identifier) continue;

    if (t.text == "std" && i + 2 < toks.size() && is_punct(toks[i + 1], "::") &&
        toks[i + 2].kind == Token::Kind::Identifier &&
        kBareThreading.count(toks[i + 2].text) != 0) {
      emit(file, t.line, check,
           "bare std::" + std::string(toks[i + 2].text) +
               " outside src/util; route concurrency through util::ThreadPool "
               "(instrumented, exception-joining) or justify with allow(raw-sync)",
           report);
      i += 2;
      continue;
    }

    if (t.text == "detach" && i >= 1 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      emit(file, t.line, check,
           "detach() leaves a task running past its owner's lifetime with no "
           "join point; submit to util::ThreadPool and hold the future instead",
           report);
      continue;
    }

    if (t.text == "new") {
      emit(file, t.line, check,
           "raw `new` without an owning smart pointer; use std::make_unique "
           "(or a container) so ownership is explicit",
           report);
      continue;
    }

    if (t.text == "const_cast") {
      emit(file, t.line, check,
           "const_cast subverts the const contract of the API it touches; fix "
           "constness at the interface or take an explicit copy",
           report);
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// Check: hot-path-format
// ---------------------------------------------------------------------------

void scan_hot_path_format(const SourceFile& file, Report& report) {
  const std::string check = "hot-path-format";
  const Tokens& toks = file.tokens;
  const auto next_is = [&toks](std::size_t i, std::string_view text) {
    return i + 1 < toks.size() && is_punct(toks[i + 1], text);
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::Identifier) continue;
    if (t.text == "snprintf" && next_is(i, "(")) {
      emit(file, t.line, check,
           "snprintf on the render hot path; write fields with util::append_int/"
           "append_uint/append_fixed and timestamps with util::append_iso/"
           "append_syslog/append_torque",
           report);
    } else if (t.text == "ostringstream") {
      emit(file, t.line, check,
           "ostringstream on the render hot path; append into the caller's buffer",
           report);
    } else if (t.text == "to_string" && next_is(i, "(") && i > 0 &&
               (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      emit(file, t.line, check,
           "Cname::to_string formats a temporary string per call on the render hot "
           "path; look the name up in a table built once per topology",
           report);
    } else if ((t.text == "std" || t.text == "Cname") && i + 2 < toks.size() &&
               is_punct(toks[i + 1], "::") && toks[i + 2].text == "to_string") {
      emit(file, t.line, check,
           std::string(t.text) +
               "::to_string builds a temporary string per call on the render hot "
               "path; append digits with util::append_int/append_uint",
           report);
      i += 2;
    }
  }
}

// ---------------------------------------------------------------------------
// Check: hot-path-metrics
// ---------------------------------------------------------------------------

/// The one function in src/serve allowed to look instruments up by name.
constexpr std::string_view kServeBindFunction = "bind_instruments";

void scan_hot_path_metrics(const SourceFile& file, Report& report) {
  const std::string check = "hot-path-metrics";
  static const std::set<std::string_view> kLookups = {"counter", "gauge", "histogram"};
  const Tokens& toks = file.tokens;

  // Body of every out-of-class `X::bind_instruments(...) ... { ... }`.
  std::vector<std::pair<std::size_t, std::size_t>> bind_bodies;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], kServeBindFunction) || !is_punct(toks[i - 1], "::") ||
        !is_punct(toks[i + 1], "(")) {
      continue;
    }
    for (std::size_t k = matching_close(toks, i + 1); k < toks.size(); ++k) {
      if (is_punct(toks[k], ";")) break;  // a call or declaration, not a definition
      if (is_punct(toks[k], "{")) {
        bind_bodies.emplace_back(k, matching_close(toks, k));
        break;
      }
    }
  }
  const auto in_bind_body = [&bind_bodies](std::size_t i) {
    for (const auto& [open, close] : bind_bodies) {
      if (i > open && i < close) return true;
    }
    return false;
  };

  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::Identifier || kLookups.count(t.text) == 0) continue;
    if (!(is_punct(toks[i - 1], "->") || is_punct(toks[i - 1], ".")) ||
        !is_punct(toks[i + 1], "(") || in_bind_body(i)) {
      continue;
    }
    std::string message = "registry ";
    message += t.text;
    message +=
        "() lookup in the serve layer takes the registry mutex and a name "
        "lookup per call; look it up once per metrics generation in "
        "Server::bind_instruments and read the bound slot";
    emit(file, t.line, check, message, report);
  }
}

}  // namespace

void check_capture_lifetime(SourceTree& tree, Report& report) {
  for (const char* top : kScanDirs) {
    for (const auto& rel : tree.files_under(top)) {
      if (lint_own_source(rel)) continue;
      const SourceFile* file = tree.source(rel);
      if (file != nullptr) scan_capture_lifetime(*file, report);
    }
  }
}

void check_dangling_view(SourceTree& tree, Report& report) {
  for (const char* top : kScanDirs) {
    for (const auto& rel : tree.files_under(top)) {
      if (lint_own_source(rel)) continue;
      const SourceFile* file = tree.source(rel);
      if (file == nullptr) continue;
      scan_view_returning_functions(*file, report);
      scan_temporary_view_bindings(*file, report);
    }
  }
}

void check_finalize_protocol(SourceTree& tree, Report& report) {
  finalize_protocol_for_class(tree, "LogStore", "src/logmodel/log_store.hpp",
                              {"src/logmodel/log_store.cpp",
                               "src/logmodel/store_snapshot.cpp"},
                              report);
  finalize_protocol_for_class(tree, "AnalysisContext", "src/core/analysis_context.hpp",
                              {"src/core/analysis_context.cpp"}, report);
}

void check_raw_sync(SourceTree& tree, Report& report) {
  for (const char* top : kScanDirs) {
    for (const auto& rel : tree.files_under(top)) {
      if (lint_own_source(rel)) continue;
      if (rel.rfind("src/util/", 0) == 0) continue;  // the primitives live here
      const SourceFile* file = tree.source(rel);
      if (file != nullptr) scan_raw_sync(*file, report);
    }
  }
}

void check_hot_path_format(SourceTree& tree, Report& report) {
  // The render loop's files: every corpus byte is written through them.
  for (const char* rel : {"src/loggen/renderer.cpp", "src/loggen/nid_ranges.cpp"}) {
    const SourceFile* file = tree.source(rel);
    if (file == nullptr) {
      report.add(rel, 0, "hot-path-format", "render hot-path file not found");
      continue;
    }
    scan_hot_path_format(*file, report);
  }
}

void check_hot_path_metrics(SourceTree& tree, Report& report) {
  for (const auto& rel : tree.files_under("src/serve")) {
    if (rel.size() < 4 || rel.compare(rel.size() - 4, 4, ".cpp") != 0) continue;
    const SourceFile* file = tree.source(rel);
    if (file != nullptr) scan_hot_path_metrics(*file, report);
  }
}

}  // namespace hpcfail::lint
