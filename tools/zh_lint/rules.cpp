// Rule implementations for zh-lint. Each rule appends raw findings; the
// driver (lint.cpp) applies suppressions afterwards, so rules never need
// to know about zh-lint-ignore comments.
#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace zh::lint::detail {
namespace {

// ---------------------------------------------------------------------------
// Layering. A module may include itself and strictly lower layers only.
// The ranks encode the architecture documented in DESIGN.md §7: common is
// the root; obs and device are infrastructure (everything is allowed to
// instrument); grid/primitives/geom are spatial foundations; bqtree,
// cluster and data build on them; core orchestrates; io sits on top of
// core. tools/, bench/, tests/ and examples/ are above src/
// entirely and are not scanned.
const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> ranks = {
      {"common", 0},  {"obs", 1},     {"device", 2},   {"grid", 3},
      {"primitives", 3}, {"geom", 4}, {"bqtree", 5},   {"cluster", 5},
      {"data", 5},    {"core", 6},    {"io", 7},
  };
  return ranks;
}

std::string module_of_include(const std::string& path) {
  const std::size_t slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool is_index_name(const std::string& s) {
  static const std::regex re(
      "^n?_?(r|c|x|y|rows?|cols?|row0|col0|width|height|nx|ny|bins?|zones?|"
      "bands?|tiles?|cells?|stride|pitch|size|count|idx|index|offset)s?_?$");
  return std::regex_match(s, re);
}

/// Names that conventionally hold exclusive-scan results or group
/// offsets (the Fig.-4 pos_v/num_v arrays and kin). These index into
/// pair/cell arrays whose totals are size_t, so their element type must
/// be 64-bit.
bool is_scan_vector_name(const std::string& s) {
  static const std::regex re("^(num|pos|offsets?|scans?|prefix|starts?)(_v)?_?$");
  return std::regex_match(s, re);
}

bool is_narrow_type_name(const std::string& s) {
  static const std::set<std::string> narrow = {
      "int",      "unsigned", "short",    "int8_t",   "uint8_t",
      "int16_t",  "uint16_t", "int32_t",  "uint32_t",
      // Project typedefs that are deliberately 32-bit wide.
      "TileId",   "BinIndex", "BinCount", "RankId",   "PolygonId",
  };
  return narrow.count(s) != 0;
}

bool is_wide_type_name(const std::string& s) {
  static const std::set<std::string> wide = {
      "long",   "size_t",  "int64_t",  "uint64_t", "ptrdiff_t",
      "double", "float",   "BinCount64",
  };
  return wide.count(s) != 0;
}

/// Find the matching close token for tokens[open] (one of "(["{"),
/// returning the index past the whole group, or tokens.size() if
/// unbalanced.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open) {
  const std::string& o = toks[open].text;
  const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == o) ++depth;
    if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size();
}

/// Index of the matching open token for toks[close], or npos.
std::size_t match_backward(const std::vector<Token>& toks,
                           std::size_t close) {
  const std::string& c = toks[close].text;
  const std::string o = c == ")" ? "(" : c == "]" ? "[" : "{";
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (toks[i].text == c) ++depth;
    if (toks[i].text == o && --depth == 0) return i;
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

// ---------------------------------------------------------------------------
void rule_layering(const std::vector<SourceFile>& files,
                   std::vector<Finding>& out) {
  const auto& ranks = layer_ranks();
  for (const SourceFile& f : files) {
    if (f.module_name.empty()) continue;  // src/zh.hpp: umbrella, top layer
    const auto self = ranks.find(f.module_name);
    if (self == ranks.end()) {
      out.push_back({f.rel, 1, "layering",
                     "module '" + f.module_name +
                         "' is not in the layer map; add it to "
                         "tools/zh_lint/rules.cpp and DESIGN.md §7"});
      continue;
    }
    for (const auto& inc : f.includes) {
      const std::string target = module_of_include(inc.path);
      if (target.empty()) {
        out.push_back({f.rel, inc.line, "layering",
                       "project include \"" + inc.path +
                           "\" must use the \"module/header.hpp\" form"});
        continue;
      }
      if (target == f.module_name) continue;  // intra-module: free
      const auto it = ranks.find(target);
      if (it == ranks.end()) {
        out.push_back({f.rel, inc.line, "layering",
                       "include \"" + inc.path + "\" targets unknown module '" +
                           target + "'"});
        continue;
      }
      if (it->second >= self->second) {
        std::ostringstream msg;
        msg << "upward include: '" << f.module_name << "' (layer "
            << self->second << ") must not include \"" << inc.path
            << "\" ('" << target << "', layer " << it->second
            << "); allowed targets are strictly lower layers";
        out.push_back({f.rel, inc.line, "layering", msg.str()});
      }
    }
  }
}

// ---------------------------------------------------------------------------
void rule_include_cycle(const std::vector<SourceFile>& files,
                        std::vector<Finding>& out) {
  // File-level include graph over src/ ("module/file.hpp" resolved
  // against src/). Layering already forbids cross-module upward edges;
  // this catches mutual inclusion inside a module, which #pragma once
  // turns into a silently half-empty header instead of a compile error.
  std::map<std::string, std::vector<std::pair<std::string, std::size_t>>> g;
  std::set<std::string> known;
  for (const SourceFile& f : files) known.insert(f.rel);
  for (const SourceFile& f : files) {
    for (const auto& inc : f.includes) {
      const std::string target = "src/" + inc.path;
      if (known.count(target) != 0) {
        g[f.rel].push_back({target, inc.line});
      }
    }
  }
  // Iterative DFS with colors; report each cycle once, at its
  // lexicographically-smallest member.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::set<std::string> reported;
  for (const SourceFile& f : files) {
    if (color[f.rel] != 0) continue;
    std::vector<std::pair<std::string, std::size_t>> stack;  // node, edge idx
    stack.push_back({f.rel, 0});
    color[f.rel] = 1;
    while (!stack.empty()) {
      auto& [node, idx] = stack.back();
      const auto& edges = g[node];
      if (idx >= edges.size()) {
        color[node] = 2;
        stack.pop_back();
        continue;
      }
      const auto [next, line] = edges[idx++];
      if (color[next] == 1) {
        // Found a cycle: walk the stack back to `next`.
        std::vector<std::string> cycle;
        for (std::size_t i = stack.size(); i-- > 0;) {
          cycle.push_back(stack[i].first);
          if (stack[i].first == next) break;
        }
        std::reverse(cycle.begin(), cycle.end());
        const std::string smallest =
            *std::min_element(cycle.begin(), cycle.end());
        if (reported.insert(smallest).second) {
          std::ostringstream msg;
          msg << "include cycle: ";
          for (const std::string& m : cycle) msg << m << " -> ";
          msg << next;
          out.push_back({node, line, "include-cycle", msg.str()});
        }
        continue;
      }
      if (color[next] == 0) {
        color[next] = 1;
        stack.push_back({next, 0});
      }
    }
  }
}

// ---------------------------------------------------------------------------
void rule_discarded_status(const SourceFile& f, std::vector<Finding>& out) {
  // Calls whose result is a Status in the comm layer. Matched by name:
  // every function of these names is [[nodiscard]].
  static const std::set<std::string> status_fns = {
      "recv_bytes", "recv_any", "recv", "await", "await_any",
  };
  static const std::set<std::string> stmt_start = {";", "{", "}", ")", ":",
                                                   "else", "do"};
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || status_fns.count(toks[i].text) == 0) {
      continue;
    }
    // Callee must be followed by an argument list, optionally via an
    // explicit template argument list: name<...>(...).
    std::size_t open = i + 1;
    if (open < toks.size() && toks[open].text == "<") {
      int depth = 0;
      while (open < toks.size()) {
        if (toks[open].text == "<") ++depth;
        if (toks[open].text == ">" && --depth == 0) {
          ++open;
          break;
        }
        ++open;
      }
    }
    if (open >= toks.size() || toks[open].text != "(") continue;
    const std::size_t close = match_forward(toks, open);
    if (close >= toks.size()) continue;
    // Result used? Anything but ';' right after the call means the value
    // flows somewhere (.throw_if_error(), assignment, return, ...).
    if (close + 1 >= toks.size() || toks[close + 1].text != ";") continue;
    // Walk back over the object chain (a.b->c::d) to the statement start.
    std::size_t j = i;
    while (j > 0) {
      const std::string& prev = toks[j - 1].text;
      if (prev == "." || prev == "->" || prev == "::") {
        if (j < 2) break;
        // Skip the chain segment before the operator: ident or a
        // balanced ()/[] group following an ident.
        std::size_t seg = j - 2;
        if (toks[seg].text == ")" || toks[seg].text == "]") {
          const std::size_t o = match_backward(toks, seg);
          if (o == static_cast<std::size_t>(-1)) break;
          seg = o == 0 ? 0 : o - 1;
        }
        j = seg;
        continue;
      }
      break;
    }
    const bool discarded =
        j == 0 || stmt_start.count(toks[j - 1].text) != 0;
    // A `(void)` cast defeats [[nodiscard]]; zh-lint still reports it --
    // dropping a comm Status silently loses timeouts and dead ranks.
    const bool void_cast =
        j >= 3 && toks[j - 1].text == ")" && toks[j - 2].text == "void" &&
        toks[j - 3].text == "(";
    if (discarded || void_cast) {
      out.push_back(
          {f.rel, toks[i].line, "discarded-status",
           "result of '" + toks[i].text +
               "' is discarded; it reports timeouts/dead ranks via Status "
               "-- handle it or call .throw_if_error()"});
    }
  }
}

// ---------------------------------------------------------------------------
void rule_index_width(const SourceFile& f, std::vector<Finding>& out) {
  // Pass 1: names declared with a narrow (<= 32-bit) integer type in this
  // file. A name also declared wide somewhere in the file is dropped
  // (scopes are beyond a lexer; suppressions handle the remainder).
  std::map<std::string, std::size_t> narrow;  // name -> decl line
  std::set<std::string> wide;
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const bool n = is_narrow_type_name(toks[i].text);
    const bool w = is_wide_type_name(toks[i].text);
    if (!n && !w) continue;
    // `unsigned int`/`unsigned long` pairs: classify by the last keyword.
    std::size_t t = i;
    bool narrow_type = n;
    if (toks[i].text == "unsigned" && t + 1 < toks.size() &&
        (is_narrow_type_name(toks[t + 1].text) ||
         is_wide_type_name(toks[t + 1].text))) {
      ++t;
      narrow_type = is_narrow_type_name(toks[t].text);
    }
    // Declarator list: ident [= init] [, ident ...] ended by ; ) or }.
    std::size_t p = t + 1;
    bool expect_name = true;
    int depth = 0;
    while (p < toks.size()) {
      const Token& tk = toks[p];
      if (expect_name) {
        if (tk.kind != TokKind::kIdent) break;  // not a declaration
        if (narrow_type) {
          narrow.emplace(tk.text, tk.line);
        } else {
          wide.insert(tk.text);
        }
        expect_name = false;
        ++p;
        continue;
      }
      if (tk.text == "(" || tk.text == "[" || tk.text == "{") ++depth;
      if (tk.text == ")" || tk.text == "]" || tk.text == "}") {
        if (depth == 0) break;
        --depth;
      }
      if (depth == 0) {
        if (tk.text == ";") break;
        if (tk.text == ",") {
          // Only continue a comma-chain in a plain `T a, b;` shape --
          // parameter lists restate the type per parameter.
          if (p + 1 < toks.size() && toks[p + 1].kind == TokKind::kIdent &&
              !is_narrow_type_name(toks[p + 1].text) &&
              !is_wide_type_name(toks[p + 1].text) &&
              p + 2 < toks.size() &&
              (toks[p + 2].text == ";" || toks[p + 2].text == "," ||
               toks[p + 2].text == "=")) {
            expect_name = true;
            ++p;
            continue;
          }
          break;
        }
      }
      ++p;
    }
  }
  for (const std::string& w : wide) narrow.erase(w);

  // Pass 2: `a * b` (optionally through one member chain on the right)
  // where both operand names look like cell/tile dimensions and at least
  // one is narrow. The product feeds 64-bit cell indices; multiplying in
  // 32 bits overflows at ~2^31 cells -- a raster the paper's CONUS DEM
  // already exceeds.
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "*") continue;
    const Token& lhs = toks[i - 1];
    if (lhs.kind != TokKind::kIdent || !is_index_name(lhs.text)) continue;
    // Reject `T* name` pointer declarations and `a ** b`.
    if (i >= 2 && (toks[i - 2].text == "*" || toks[i + 1].text == "*")) {
      continue;
    }
    std::size_t r = i + 1;
    if (toks[r].kind != TokKind::kIdent) continue;
    std::string rhs = toks[r].text;
    while (r + 2 < toks.size() &&
           (toks[r + 1].text == "." || toks[r + 1].text == "::") &&
           toks[r + 2].kind == TokKind::kIdent) {
      r += 2;
      rhs = toks[r].text;
    }
    // `rhs(...)`: a call, not a value we can width-check.
    if (r + 1 < toks.size() && toks[r + 1].text == "(") continue;
    if (!is_index_name(rhs)) continue;
    const auto ln = narrow.find(lhs.text);
    const auto rn = narrow.find(rhs);
    if (ln == narrow.end() && rn == narrow.end()) continue;
    const auto& hit = ln != narrow.end() ? *ln : *rn;
    std::ostringstream msg;
    msg << "32-bit index arithmetic: '" << lhs.text << " * " << rhs
        << "' multiplies '" << hit.first << "' declared narrow at line "
        << hit.second
        << "; widen with static_cast<std::int64_t>/std::size_t before "
           "multiplying (cell/tile indices are 64-bit)";
    out.push_back({f.rel, toks[i].line, "index-width", msg.str()});
  }

  // Pass 3: scan/offset vectors with a narrow element type. pos_v-style
  // arrays hold exclusive-scan outputs -- offsets into pair/cell arrays
  // whose totals are size_t -- so a 32-bit element wraps silently once a
  // run crosses 2^32 pairs (the PolygonTileGroups::pos_v bug).
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "vector") continue;
    if (toks[i + 1].text != "<") continue;
    std::size_t t = i + 2;
    if (t + 1 < toks.size() && toks[t].text == "std" &&
        toks[t + 1].text == "::") {
      t += 2;
    }
    if (t >= toks.size() || toks[t].kind != TokKind::kIdent) continue;
    std::string elem = toks[t].text;
    if (elem == "unsigned" && t + 1 < toks.size() &&
        (is_narrow_type_name(toks[t + 1].text) ||
         is_wide_type_name(toks[t + 1].text))) {
      ++t;
      elem = elem + " " + toks[t].text;
      if (is_wide_type_name(toks[t].text)) continue;
    } else if (!is_narrow_type_name(elem)) {
      continue;
    }
    std::size_t p = t + 1;
    if (p >= toks.size() || toks[p].text != ">") continue;
    ++p;
    while (p < toks.size() && (toks[p].text == "&" || toks[p].text == "const")) {
      ++p;
    }
    if (p >= toks.size() || toks[p].kind != TokKind::kIdent ||
        !is_scan_vector_name(toks[p].text)) {
      continue;
    }
    std::ostringstream msg;
    msg << "32-bit scan/offset vector: 'vector<" << elem << "> "
        << toks[p].text
        << "' holds offsets into arrays sized by size_t; use "
           "std::uint64_t/std::size_t elements (an exclusive scan past "
           "2^32 wraps silently)";
    out.push_back({f.rel, toks[p].line, "index-width", msg.str()});
  }
}

// ---------------------------------------------------------------------------
void rule_naked_new(const SourceFile& f, std::vector<Finding>& out) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (toks[i].text == "new") {
      out.push_back({f.rel, toks[i].line, "naked-new",
                     "naked 'new' in library code; use std::make_unique/"
                     "std::vector or a named owner"});
    } else if (toks[i].text == "delete") {
      // `= delete`d functions are not deallocations.
      if (i > 0 && toks[i - 1].text == "=") continue;
      out.push_back({f.rel, toks[i].line, "naked-new",
                     "naked 'delete' in library code; ownership belongs in "
                     "a RAII type"});
    }
  }
}

// ---------------------------------------------------------------------------
void rule_raw_mutex_lock(const SourceFile& f, std::vector<Finding>& out) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if ((toks[i].text != "." && toks[i].text != "->")) continue;
    if (toks[i + 1].text != "lock" && toks[i + 1].text != "unlock") continue;
    if (toks[i + 2].text != "(" || toks[i + 3].text != ")") continue;
    out.push_back({f.rel, toks[i + 1].line, "raw-mutex-lock",
                   "manual ." + toks[i + 1].text +
                       "() outside RAII; use std::lock_guard/"
                       "std::unique_lock so unlock survives exceptions"});
  }
}

// ---------------------------------------------------------------------------
void rule_stdio_in_lib(const SourceFile& f, std::vector<Finding>& out) {
  static const std::set<std::string> banned = {"cout", "cerr", "printf",
                                               "puts", "putchar"};
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (banned.count(t) != 0) {
      // Member accesses like `obj.printf(...)` are someone else's API.
      if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
        continue;
      }
      // `snprintf` etc. are distinct tokens already; `printf`/`puts`
      // must be a call or stream object use, not a declaration name.
      out.push_back({f.rel, toks[i].line, "stdio-in-lib",
                     "'" + t +
                         "' in library code; src/ must stay silent -- "
                         "report through Status/exceptions/obs (tools and "
                         "bench own the terminal)"});
      continue;
    }
    // fprintf is fine on a caller-supplied FILE*, banned on std streams.
    if (t == "fprintf" && i + 2 < toks.size() && toks[i + 1].text == "(" &&
        (toks[i + 2].text == "stdout" || toks[i + 2].text == "stderr")) {
      out.push_back({f.rel, toks[i].line, "stdio-in-lib",
                     "'fprintf(" + toks[i + 2].text +
                         ", ...)' in library code; write to a caller-"
                         "supplied FILE* or report through Status/obs"});
    }
  }
}

// ---------------------------------------------------------------------------
void rule_switch_enum(const std::vector<SourceFile>& files,
                      std::vector<Finding>& out) {
  // Pass A: every `enum [class|struct] Name ... { enumerators }` in src/.
  std::map<std::string, std::vector<std::string>> enums;
  for (const SourceFile& f : files) {
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].text != "enum") continue;
      std::size_t p = i + 1;
      if (toks[p].text == "class" || toks[p].text == "struct") ++p;
      if (p >= toks.size() || toks[p].kind != TokKind::kIdent) continue;
      const std::string name = toks[p].text;
      ++p;
      while (p < toks.size() && toks[p].text != "{" && toks[p].text != ";") {
        ++p;  // skip `: underlying_type`
      }
      if (p >= toks.size() || toks[p].text != "{") continue;  // fwd decl
      const std::size_t close = match_forward(toks, p);
      std::vector<std::string> members;
      bool expect = true;
      for (std::size_t q = p + 1; q < close; ++q) {
        if (expect && toks[q].kind == TokKind::kIdent) {
          members.push_back(toks[q].text);
          expect = false;
        } else if (toks[q].text == ",") {
          expect = true;
        }
      }
      if (!members.empty()) enums[name] = std::move(members);
    }
  }
  // Pass B: switches whose case labels qualify a known enum.
  for (const SourceFile& f : files) {
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].text != "switch") continue;
      std::size_t p = i + 1;
      if (p >= toks.size() || toks[p].text != "(") continue;
      p = match_forward(toks, p);
      if (p >= toks.size() || p + 1 >= toks.size() ||
          toks[p + 1].text != "{") {
        continue;
      }
      const std::size_t open = p + 1;
      const std::size_t close = match_forward(toks, open);
      bool has_default = false;
      std::string enum_name;
      std::set<std::string> seen;
      for (std::size_t q = open + 1; q < close; ++q) {
        if (toks[q].text == "default") has_default = true;
        if (toks[q].text == "case") {
          // Label tokens up to ':' (but not '::').
          for (std::size_t r = q + 1; r + 1 < close; ++r) {
            if (toks[r].text == ":" ) break;
            if (toks[r].text == "::" && toks[r - 1].kind == TokKind::kIdent &&
                enums.count(toks[r - 1].text) != 0 &&
                toks[r + 1].kind == TokKind::kIdent) {
              enum_name = toks[r - 1].text;
              seen.insert(toks[r + 1].text);
            }
          }
        }
      }
      if (has_default || enum_name.empty()) continue;
      std::vector<std::string> missing;
      for (const std::string& m : enums[enum_name]) {
        if (seen.count(m) == 0) missing.push_back(m);
      }
      if (missing.empty()) continue;
      std::ostringstream msg;
      msg << "switch on enum '" << enum_name
          << "' has no default and misses: ";
      for (std::size_t m = 0; m < missing.size(); ++m) {
        msg << (m ? ", " : "") << missing[m];
      }
      msg << " -- handle every enumerator or add a default";
      out.push_back({f.rel, toks[i].line, "switch-enum", msg.str()});
    }
  }
}

// ---------------------------------------------------------------------------
void rule_pragma_once(const SourceFile& f, std::vector<Finding>& out) {
  if (!f.is_header) return;
  static const std::regex re("^\\s*#\\s*pragma\\s+once\\b");
  for (const std::string& line : f.code_lines) {
    if (std::regex_search(line, re)) return;
  }
  out.push_back({f.rel, 1, "pragma-once",
                 "header lacks '#pragma once'; every zonalhist header must "
                 "be include-guarded and self-contained (see the "
                 "check_headers target)"});
}

// ---------------------------------------------------------------------------
void rule_nolint_audit(const SourceFile& f, std::vector<Finding>& out) {
  // clang-tidy escapes must be scoped and justified: NOLINT(check) with
  // trailing reason text. A bare NOLINT turns off every check forever.
  for (std::size_t li = 0; li < f.comment_lines.size(); ++li) {
    const std::string& text = f.comment_lines[li];
    std::size_t at = text.find("NOLINT");
    if (at == std::string::npos) continue;
    std::size_t p = at + 6;
    if (text.compare(p, 8, "NEXTLINE") == 0) p += 8;
    else if (text.compare(p, 5, "BEGIN") == 0) p += 5;
    else if (text.compare(p, 3, "END") == 0) p += 3;
    std::string checks;
    if (p < text.size() && text[p] == '(') {
      const std::size_t close = text.find(')', p);
      if (close != std::string::npos) {
        checks = text.substr(p + 1, close - p - 1);
        p = close + 1;
      }
    }
    if (checks.empty()) {
      out.push_back({f.rel, li + 1, "nolint-audit",
                     "bare NOLINT disables every clang-tidy check; use "
                     "NOLINT(check-id) with a reason"});
      continue;
    }
    if (text.find_first_not_of(" \t", p) == std::string::npos) {
      out.push_back({f.rel, li + 1, "nolint-audit",
                     "NOLINT(" + checks +
                         ") has no reason; append why this site is exempt"});
    }
  }
}

}  // namespace zh::lint::detail
