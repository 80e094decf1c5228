// dj_alloc: cross-translation-unit may-allocate analysis, the static half
// of the allocation-discipline layer (src/util/alloc_guard.h, DESIGN.md
// §11). Registered as a ctest (label: lint) so an allocation introduced on
// a path no test ever executes still fails the build.
//
// What it does, end to end:
//   1. Scans every source file for DJ_NOALLOC function annotations. A
//      declaration ending in ';' annotates the same function key as its
//      definition (header contracts are inherited by the .cc, like
//      DJ_REQUIRES in dj_deadlock).
//   2. Lexes every function body and records (a) direct allocation events
//      — `new`, malloc/calloc/realloc, make_unique/make_shared,
//      std::to_string, local std::vector/std::string construction,
//      std::function declarations, container growth calls
//      (push_back/resize/reserve/append/insert/…) and string
//      concatenation with a literal — and (b) every call site.
//   3. Resolves calls against qualified function keys (`Class::Name`
//      for members, `ns::Name` for free functions, keyed by their
//      innermost named namespace, so kern::Gelu and nn::Gelu stay two
//      functions; bare `Name` outside any named namespace): explicit
//      `X::f(...)` first, then the caller's own class, then the caller's
//      namespace, then a globally unique name; ambiguous names are
//      dropped (see blind spots).
//   4. Runs the shared transitive may-allocate fixpoint
//      (lintc::ReachWitness) over the call graph.
//   5. Reports every DJ_NOALLOC function that can reach an allocation,
//      with the witness call chain down to the allocating line.
//
// Suppression: `// dj_alloc: allow(alloc)` on the line (or the line
// above). On a direct allocation event it discards the event — the
// documented use is one-time warmup work (pool growth, function-local
// static init) and growth of capacity-reusing scratch buffers. On a call
// site it cuts that call edge. Every suppression in the tree must carry a
// justification comment.
//
// Known blind spots (all deliberate, keeping the tool lexical and fast):
// calls through ambiguous unqualified names are dropped rather than
// fanned out (annotate each override of a virtual instead — that is what
// DJ_NOALLOC on both the interface and the implementations buys);
// allocation inside unscanned external code is invisible unless it goes
// through a recognized growth/construction form; a lambda body is
// analysed in its lexical position.
//
// Usage: dj_alloc [--root <dir>] [--list-rules] [--dump-graph]
//                 [subdir ...]
//   Scans <root>/src by default. Exit: 0 clean, 1 violations, 2 usage.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint_common.h"

namespace fs = std::filesystem;

namespace {

using lintc::FileText;
using lintc::HeadFunctionName;
using lintc::IsAnnotationMacro;
using lintc::Lex;
using lintc::StripCommentsAndStrings;
using lintc::Tok;
using lintc::Violation;

/// Free functions whose return value is freshly heap-allocated memory.
const std::set<std::string>& AllocCalls() {
  static const std::set<std::string> kSet = {
      "malloc",      "calloc",      "realloc",       "strdup",
      "aligned_alloc", "posix_memalign", "make_unique", "make_shared",
      "to_string",
  };
  return kSet;
}

/// Member calls that may grow a container (vector/string/map/set/deque).
/// `reserve` is included on purpose: on a fresh object it allocates; on a
/// capacity-reusing scratch buffer the site carries a justified
/// suppression.
const std::set<std::string>& GrowthCalls() {
  static const std::set<std::string> kSet = {
      "push_back", "emplace_back", "resize",  "reserve",    "append",
      "insert",    "emplace",      "try_emplace", "assign", "push_front",
      "emplace_front", "push",
  };
  return kSet;
}

/// Index just past the bracket group opened at head[i] (`open`), or
/// head.size() if it never closes.
size_t SkipBalanced(const std::vector<Tok>& head, size_t i,
                    const std::string& open, const std::string& close) {
  int depth = 0;
  for (; i < head.size(); ++i) {
    if (head[i].text == open) {
      ++depth;
    } else if (head[i].text == close && --depth == 0) {
      return i + 1;
    }
  }
  return i;
}

/// Index of the class name in a class head whose class-key sits just
/// before head[i]: skips the attributes that may come first (`[[...]]`,
/// `alignas(...)`, and the project's annotation macros such as
/// `DJ_CAPABILITY("mutex")`).
size_t SkipClassAttributes(const std::vector<Tok>& head, size_t i) {
  while (i < head.size()) {
    if (head[i].text == "[" && i + 1 < head.size() &&
        head[i + 1].text == "[") {
      i = SkipBalanced(head, i, "[", "]");
    } else if (head[i].kind == Tok::kIdent &&
               (head[i].text == "alignas" || IsAnnotationMacro(head[i].text))) {
      ++i;
      if (i < head.size() && head[i].text == "(") {
        i = SkipBalanced(head, i, "(", ")");
      }
    } else {
      break;
    }
  }
  return i;
}

struct CallSite {
  std::string callee;     // unqualified name as written
  std::string qualifier;  // explicit `X::` at the call site ("" if none)
  std::string caller_class;  // key prefix of the enclosing function: its
                             // class, or its namespace if free ("" if none)
  std::string caller_ns;     // innermost named namespace at the call site
  bool member_call = false;   // written as `recv.f(...)` or `recv->f(...)`
  bool receiver_this = false;  // the receiver token is `this`
  std::string file;
  size_t line = 0;
};

struct FuncInfo {
  bool noalloc = false;       // carries a DJ_NOALLOC annotation
  bool free_function = false;  // keyed by namespace, not by class
  std::string def_site_file;  // first seen definition (for reporting)
  size_t def_site_line = 0;
  std::string direct_event;   // first unsuppressed allocation event label
  std::vector<CallSite> calls;
};

class Analyzer {
 public:
  explicit Analyzer(fs::path root) : root_(std::move(root)) {}

  const std::vector<Violation>& violations() const { return violations_; }
  size_t files_scanned() const { return files_scanned_; }

  void AnalyzeTree(const fs::path& dir) {
    for (const fs::path& f : lintc::CollectSourceFiles(dir)) ScanFile(f);
  }

  /// Call resolution + fixpoint + report. Call once after AnalyzeTree.
  void Finish(bool dump_graph) {
    // Unqualified name -> keys carrying it (for unique-name resolution).
    std::map<std::string, std::vector<std::string>> by_name;
    for (const auto& [key, f] : funcs_) {
      (void)f;
      const size_t sep = key.rfind("::");
      by_name[sep == std::string::npos ? key : key.substr(sep + 2)]
          .push_back(key);
    }

    lintc::CallGraph graph;
    for (const auto& [key, f] : funcs_) {
      std::vector<std::string>& out = graph[key];
      for (const CallSite& c : f.calls) {
        const std::string resolved = Resolve(c, by_name);
        if (!resolved.empty()) out.push_back(resolved);
      }
    }

    std::map<std::string, std::string> seeds;
    for (const auto& [key, f] : funcs_) {
      if (!f.direct_event.empty()) seeds[key] = f.direct_event;
    }
    const std::map<std::string, std::string> may_alloc =
        lintc::ReachWitness(graph, seeds);

    if (dump_graph) {
      for (const auto& [key, callees] : graph) {
        for (const std::string& callee : callees) {
          std::cout << key << " -> " << callee << "\n";
        }
      }
    }

    for (const auto& [key, f] : funcs_) {
      if (!f.noalloc) continue;
      auto it = may_alloc.find(key);
      if (it == may_alloc.end() || it->second.empty()) continue;
      violations_.push_back(
          {f.def_site_file, f.def_site_line, "noalloc",
           "DJ_NOALLOC function '" + key + "' may allocate: " + it->second});
    }
  }

 private:
  /// Resolution order: explicit `X::f` > caller's own class `C::f` >
  /// caller's namespace `ns::f` > exact bare key `f` > globally unique
  /// `*::f`. Everything else is dropped (ambiguous or external).
  std::string Resolve(
      const CallSite& c,
      const std::map<std::string, std::vector<std::string>>& by_name) const {
    if (!c.qualifier.empty()) {
      const std::string qualified = c.qualifier + "::" + c.callee;
      if (funcs_.count(qualified) != 0) return qualified;
      // A free function defined outside any named namespace.
      if (funcs_.count(c.callee) != 0) return c.callee;
      // A qualifier that keys nothing (a namespace, or a class the tree
      // never defines a member of): fall back to a unique name.
      auto it = by_name.find(c.callee);
      if (it != by_name.end() && it->second.size() == 1) return it->second[0];
      return "";
    }
    // A member call through another receiver (`vocab_.Encode(...)`,
    // `counter->Add(...)`) can match neither the caller's class nor a free
    // function: the receiver's class is unknown, so resolve only when
    // exactly one class in the tree defines the name (annotate each
    // override otherwise — the documented virtual-dispatch blind spot).
    if (c.member_call && !c.receiver_this) {
      auto it = by_name.find(c.callee);
      if (it == by_name.end()) return "";
      std::string found;
      for (const std::string& key : it->second) {
        if (funcs_.at(key).free_function) continue;
        if (!found.empty()) return "";  // ambiguous
        found = key;
      }
      return found;
    }
    if (!c.caller_class.empty()) {
      const std::string same_class = c.caller_class + "::" + c.callee;
      if (funcs_.count(same_class) != 0) return same_class;
    }
    if (!c.caller_ns.empty()) {
      const std::string same_ns = c.caller_ns + "::" + c.callee;
      if (funcs_.count(same_ns) != 0) return same_ns;
    }
    if (funcs_.count(c.callee) != 0) return c.callee;
    auto it = by_name.find(c.callee);
    if (it != by_name.end() && it->second.size() == 1) return it->second[0];
    return "";
  }

  std::string Relative(const fs::path& path) const {
    std::error_code ec;
    const fs::path rel = fs::relative(path, root_, ec);
    return (ec ? path : rel).generic_string();
  }

  void ScanFile(const fs::path& path) {
    std::ifstream in(path);
    if (!in) return;
    ++files_scanned_;
    const std::string rel = Relative(path);
    const FileText text = StripCommentsAndStrings(in);
    const std::vector<Tok> toks = Lex(text);

    auto suppressed = [&](size_t line) {
      return line != 0 && line <= text.raw.size() &&
             lintc::SuppressedAt(text, line - 1, "dj_alloc", "alloc");
    };

    enum ScopeKind { kNamespace, kClass, kFunction, kBlock };
    struct Scope {
      ScopeKind kind = kBlock;
      std::string class_name;  // for kClass
      std::string ns_name;     // for kNamespace ("" if anonymous)
      std::string func_key;    // for kFunction
    };
    std::vector<Scope> scopes;
    std::vector<Tok> head;

    auto current_func = [&]() -> std::string {
      for (size_t i = scopes.size(); i-- > 0;) {
        if (scopes[i].kind == kFunction) return scopes[i].func_key;
      }
      return "";
    };
    auto enclosing_class = [&]() -> std::string {
      for (size_t i = scopes.size(); i-- > 0;) {
        if (scopes[i].kind == kClass) return scopes[i].class_name;
        if (scopes[i].kind == kFunction) break;  // local classes only
      }
      return "";
    };
    auto innermost_namespace = [&]() -> std::string {
      for (size_t i = scopes.size(); i-- > 0;) {
        if (scopes[i].kind == kNamespace && !scopes[i].ns_name.empty()) {
          return scopes[i].ns_name;
        }
      }
      return "";
    };
    // Function key for a head whose name token sits at `idx`: explicit
    // `X::name` qualification wins, else the enclosing class, else the
    // innermost named namespace (a free function), else bare.
    auto key_for_head = [&](const std::vector<Tok>& h, size_t idx,
                            const std::string& name) {
      if (idx >= 3 && h[idx - 1].text == ":" && h[idx - 2].text == ":" &&
          h[idx - 3].kind == Tok::kIdent) {
        return h[idx - 3].text + "::" + name;
      }
      const std::string cls = enclosing_class();
      if (!cls.empty()) return cls + "::" + name;
      const std::string ns = innermost_namespace();
      const std::string key = ns.empty() ? name : ns + "::" + name;
      funcs_[key].free_function = true;
      return key;
    };
    auto head_has_noalloc = [](const std::vector<Tok>& h) {
      for (const Tok& t : h) {
        if (t.kind == Tok::kIdent && t.text == "DJ_NOALLOC") return true;
      }
      return false;
    };
    auto record_event = [&](const std::string& label, size_t line) {
      const std::string fn = current_func();
      if (fn.empty() || suppressed(line)) return;
      FuncInfo& f = funcs_[fn];
      if (f.direct_event.empty()) {
        f.direct_event = label + " (" + rel + ":" + std::to_string(line) + ")";
      }
    };

    for (size_t i = 0; i < toks.size(); ++i) {
      const Tok& t = toks[i];
      if (t.text == "{") {
        Scope s;
        std::string class_kw_name, ns_kw_name;
        bool has_class = false, has_namespace = false;
        for (size_t h = 0; h + 1 < head.size(); ++h) {
          if (head[h].text == "class" || head[h].text == "struct" ||
              head[h].text == "union") {
            has_class = true;
            const size_t name = SkipClassAttributes(head, h + 1);
            if (name < head.size() && head[name].kind == Tok::kIdent) {
              class_kw_name = head[name].text;
            }
          }
          if (head[h].text == "namespace") {
            has_namespace = true;
            // `namespace a::b {` opens b: keep the last name.
            for (size_t n = h + 1; n < head.size(); ++n) {
              if (head[n].kind == Tok::kIdent) ns_kw_name = head[n].text;
            }
          }
        }
        if (!head.empty() && head.back().text == "namespace") {
          has_namespace = true;  // anonymous namespace
        }
        const bool in_function = !current_func().empty();
        size_t name_idx = 0;
        const std::string fn = HeadFunctionName(head, &name_idx);
        bool looks_like_fn = false;
        if (!head.empty()) {
          const std::string& prev = head.back().text;
          looks_like_fn = prev == ")" || prev == "const" ||
                          prev == "noexcept" || prev == "override" ||
                          prev == "final";
        }
        if (has_namespace && !in_function) {
          s.kind = kNamespace;
          s.ns_name = ns_kw_name;
        } else if (has_class && !in_function) {
          s.kind = kClass;
          s.class_name = class_kw_name;
        } else if (!in_function && !fn.empty() && looks_like_fn) {
          s.kind = kFunction;
          s.func_key = key_for_head(head, name_idx, fn);
          FuncInfo& f = funcs_[s.func_key];
          if (f.def_site_file.empty()) {
            f.def_site_file = rel;
            f.def_site_line = head[name_idx].line;
          }
          if (head_has_noalloc(head)) f.noalloc = true;
        } else if (in_function && !fn.empty() && looks_like_fn) {
          // Lambda or local helper: analysed in its lexical position —
          // treat the braces as a plain block of the enclosing function.
          s.kind = kBlock;
        } else {
          s.kind = kBlock;
        }
        scopes.push_back(std::move(s));
        head.clear();
        continue;
      }
      if (t.text == "}") {
        if (!scopes.empty()) scopes.pop_back();
        head.clear();
        continue;
      }
      if (t.text == ";") {
        // Declarations carry DJ_NOALLOC too — harvest so definitions in
        // the .cc inherit the header's contract.
        if (head_has_noalloc(head)) {
          size_t name_idx = 0;
          const std::string fn = HeadFunctionName(head, &name_idx);
          if (!fn.empty()) {
            funcs_[key_for_head(head, name_idx, fn)].noalloc = true;
          }
        }
        head.clear();
        continue;
      }
      head.push_back(t);

      const std::string fn = current_func();
      if (fn.empty()) continue;  // events only matter inside bodies

      // ---- direct allocation events ----
      if (t.kind == Tok::kIdent && t.text == "new") {
        const bool op_def = i > 0 && toks[i - 1].text == "operator";
        if (!op_def) record_event("new", t.line);
        continue;
      }
      if (t.kind == Tok::kIdent && i + 1 < toks.size() &&
          (toks[i + 1].text == "(" || toks[i + 1].text == "<") &&
          AllocCalls().count(t.text) != 0) {
        record_event(t.text + "()", t.line);
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "function" &&
          i + 1 < toks.size() && toks[i + 1].text == "<") {
        record_event("std::function construction", t.line);
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "string" &&
          i + 1 < toks.size() && toks[i + 1].text == "(") {
        record_event("std::string construction", t.line);
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "vector" &&
          i + 1 < toks.size() && toks[i + 1].text == "<") {
        // Local vector: skip reference/pointer bindings (no construction).
        size_t j = i + 1;
        int depth = 0;
        while (j < toks.size()) {
          if (toks[j].text == "<") ++depth;
          if (toks[j].text == ">" && --depth == 0) break;
          ++j;
        }
        const bool ref_or_ptr =
            j + 1 < toks.size() &&
            (toks[j + 1].text == "&" || toks[j + 1].text == "*");
        if (!ref_or_ptr) record_event("local std::vector", t.line);
        continue;
      }
      // String concatenation with a literal operand.
      if (t.kind == Tok::kPunct && t.text == "+" &&
          ((i > 0 && toks[i - 1].kind == Tok::kString) ||
           (i + 1 < toks.size() && toks[i + 1].kind == Tok::kString))) {
        record_event("string concatenation", t.line);
        continue;
      }
      // Container growth through a member call.
      const bool via_dot = i > 0 && toks[i - 1].text == ".";
      const bool via_arrow =
          i > 1 && toks[i - 1].text == ">" && toks[i - 2].text == "-";
      if (t.kind == Tok::kIdent && (via_dot || via_arrow) &&
          i + 1 < toks.size() && toks[i + 1].text == "(" &&
          GrowthCalls().count(t.text) != 0) {
        record_event("." + t.text + "()", t.line);
        continue;
      }

      // ---- call sites ----
      if (t.kind == Tok::kIdent && i + 1 < toks.size() &&
          toks[i + 1].text == "(") {
        static const std::set<std::string> kNotCalls = {
            "if",     "for",    "while",   "switch",   "return", "catch",
            "sizeof", "static_cast",       "const_cast",
            "dynamic_cast",     "reinterpret_cast",    "alignof",
            "decltype",
        };
        if (kNotCalls.count(t.text) != 0 || IsAnnotationMacro(t.text)) {
          continue;
        }
        if (suppressed(t.line)) continue;  // cut the edge, not the function
        CallSite c;
        c.callee = t.text;
        if (i >= 3 && toks[i - 1].text == ":" && toks[i - 2].text == ":" &&
            toks[i - 3].kind == Tok::kIdent) {
          c.qualifier = toks[i - 3].text;
        }
        if (via_dot || via_arrow) {
          c.member_call = true;
          const size_t recv = via_dot ? i - 2 : i - 3;
          c.receiver_this =
              recv < i && toks[recv].text == "this";  // recv underflow-safe
        }
        const size_t sep = fn.rfind("::");
        if (sep != std::string::npos) c.caller_class = fn.substr(0, sep);
        c.caller_ns = innermost_namespace();
        c.file = rel;
        c.line = t.line;
        funcs_[fn].calls.push_back(std::move(c));
      }
    }
  }

  fs::path root_;
  std::map<std::string, FuncInfo> funcs_;  // qualified key -> info
  std::vector<Violation> violations_;
  size_t files_scanned_ = 0;
};

void ListRules() {
  std::cout
      << "noalloc        a DJ_NOALLOC function (src/util/alloc_guard.h) "
         "must not reach any allocation: new, malloc/calloc/realloc, "
         "make_unique/make_shared, std::to_string, local vector/string "
         "construction, std::function, container growth "
         "(push_back/resize/reserve/append/insert/...), or string "
         "concatenation — transitively through the call graph\n"
      << "suppress with  // dj_alloc: allow(alloc)  (at the allocation "
         "site: discards the event; at a call site: cuts that edge; "
         "reserved for warmup-only work and capacity-reusing scratch)\n";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::vector<std::string> subdirs;
  bool dump_graph = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "dj_alloc: --root requires a directory\n";
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--list-rules") {
      ListRules();
      return 0;
    } else if (arg == "--dump-graph") {
      dump_graph = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "dj_alloc: unknown flag " << arg << "\n";
      return 2;
    } else {
      subdirs.push_back(arg);
    }
  }
  if (subdirs.empty()) subdirs.push_back("src");

  Analyzer analyzer(root);
  bool scanned_any = false;
  for (const std::string& sub : subdirs) {
    const fs::path dir = root / sub;
    if (!fs::is_directory(dir)) continue;
    scanned_any = true;
    analyzer.AnalyzeTree(dir);
  }
  if (!scanned_any) {
    std::cerr << "dj_alloc: nothing to scan under " << root << "\n";
    return 2;
  }
  analyzer.Finish(dump_graph);

  return lintc::PrintReport("dj_alloc", analyzer.violations(),
                            analyzer.files_scanned());
}
