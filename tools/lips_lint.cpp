// lips-lint — source-tree checker for the invariants that neither the
// compiler nor the unit types can see:
//
//   * cost correctness — every dollar-bearing quantity must travel through
//     the dimensional types in common/units.hpp, never as a raw double;
//   * determinism — no unseeded randomness, no iteration order leaking from
//     unordered containers into schedules or bills, no wall-clock reads;
//   * concurrency safety — shared mutable state must be impossible to
//     introduce silently: no raw std::mutex (the annotated lips::Mutex
//     participates in clang -Wthread-safety), no mutable statics, no
//     un-annotated escape of per-thread Rng streams, no unguarded members in
//     mutex-holding classes, no farm type without a declared thread role.
//
// Two guarantees are compile errors instead (DESIGN.md §7): implicit
// float/double mixing fails under the root CMakeLists.txt's -Werror flags, and
// ckpt::seq / ckpt::fixed refuse hash containers, whose iteration order
// would leak into snapshot bytes (ckpt::sorted codes them in key order).
//
// Engine: each file is read once and stripped of comments and string/char
// literals (newlines kept), so rules only ever see code; class/struct
// extents are then brace-matched and split into top-level member
// statements. Six rules are one banned pattern each, rows of one table
// (banned_patterns); the other six read the parsed classes or the file's
// declarations.
//
// Rules (suppress a single line with `// lips-lint: allow(<rule>)`):
//
//   raw-cost-double      double-typed *_cost* / *_mc / *_bytes / *_secs
//                        declaration outside common/units.hpp
//   raw-rng              rand()/srand()/std::random_device outside
//                        common/rng.hpp (use lips::Rng)
//   nondet-time          system_clock / steady_clock / high_resolution_clock
//                        / gettimeofday / time(nullptr) / clock() outside
//                        bench/ (benchmarks measure wall time by design)
//   raw-stdout-in-lib    printf/std::cout in src/ library code outside the
//                        obs exporters — libraries return data or write to a
//                        caller's ostream; only tools/ binaries own stdout
//   raw-mutex            std::mutex / std::lock_guard / friends in src/
//                        outside common/thread_annotations.hpp — a raw mutex
//                        is invisible to -Wthread-safety
//   blocking-call-in-handler
//                        (src/svc/session*, src/svc/service* only) sleeps,
//                        synchronous fstream/fopen, fd reads and socket
//                        waits in the command-handler layer, which runs on
//                        each session's single worker thread — a blocked
//                        handler stalls the whole tenant
//   unordered-iteration  range-for or .begin() over a std::unordered_map/
//                        unordered_set declared in the same file
//   unchecked-solve-status
//                        an LpSolution's .values/.objective read in a file
//                        that never reads that solution's .status or
//                        .optimal() — IterationLimit/Infeasible solutions
//                        carry empty or stale vectors, so acting on them
//                        silently schedules garbage
//   shared-mutable-static
//                        non-const static data at namespace, class or
//                        function scope in src/ — a mutable static is shared
//                        by every farm worker by definition; make it const,
//                        per-instance state, or `static thread_local`
//                        (exempt). Heuristic: a static whose declarator
//                        reaches `(` before any `=` is treated as a function
//                        declaration; spell static-object initializers with
//                        `=` or `{}` so the linter can see them
//   rng-by-ref-escape    class member storing `Rng&`/`Rng*` with no thread
//                        role declared on it or its class — how one Rng
//                        ends up drawn from two threads
//   unguarded-member-mutation
//                        a class holding a by-value lips::Mutex member has a
//                        mutable data member with no LIPS_GUARDED_BY(...)
//                        annotation — the member is invisible to clang's
//                        analysis. Atomics, references, const/static members
//                        and LIPS_PER_THREAD-marked members are exempt
//   farm-shared-state    (src/farm/ only) the farm's serial-vs-threaded
//                        bit-identity contract bans hidden shared or sticky
//                        state: every static shared-mutable-static flags
//                        *and* the thread_local ones (pool threads are
//                        reused, so they leak state between runs), and every
//                        member unguarded-member-mutation would flag, in any
//                        class without a LIPS_EXTERNALLY_SYNCHRONIZED or
//                        LIPS_PER_THREAD head marker
//
// Fixture files opt into the scoped rules by name (tsa_*, tsa_farm*,
// svc_handler*) so the self-test can seed violations; see Path gating.
//
// Usage:
//   lips_lint <file>...              one stderr line per finding,
//                                    `file:line: [rule] message`; exit 1 if
//                                    any
//   lips_lint --self-test <file>...  every finding must match a
//                                    `// lint-expect(<rule>)` marker on its
//                                    line, and every marker must fire
//
// The caller chooses the files: the ctest glob in tools/CMakeLists.txt and
// CI's `git ls-files` both leave out build trees and bench/results/.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

// --- Lexical pass -----------------------------------------------------------

/// Replace comments and string/char literals with spaces (newlines kept) so
/// rule regexes only ever see code. The raw text is still consulted for
/// `lips-lint: allow` and `lint-expect` markers, which live in comments.
std::string strip_to_code(const std::string& text) {
  std::string out(text.size(), ' ');
  enum class St { Code, Line, Block, Str, Chr } st = St::Code;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      out[i] = '\n';
      if (st == St::Line) st = St::Code;
      continue;
    }
    switch (st) {
      case St::Code:
        if (c == '/' && n == '/') {
          st = St::Line;
        } else if (c == '/' && n == '*') {
          st = St::Block;
          ++i;
        } else if (c == '"') {
          st = St::Str;
          out[i] = '"';
        } else if (c == '\'') {
          st = St::Chr;
          out[i] = '\'';
        } else {
          out[i] = c;
        }
        break;
      case St::Line:
        break;
      case St::Block:
        if (c == '*' && n == '/') {
          st = St::Code;
          ++i;
        }
        break;
      case St::Str:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          st = St::Code;
          out[i] = '"';
        }
        break;
      case St::Chr:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = St::Code;
          out[i] = '\'';
        }
        break;
    }
  }
  return out;
}

std::size_t line_of(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool contains(const std::string& s, std::string_view part) {
  return s.find(part) != std::string::npos;
}

// --- Path gating ------------------------------------------------------------

bool everywhere(const std::string& /*path*/) { return true; }

bool outside_bench(const std::string& path) {
  return !contains(path, "bench/");
}

/// Library source subject to raw-stdout-in-lib: everything under src/ except
/// the obs exporters (whose whole job is formatting to a stream; they still
/// take the ostream from the caller rather than grabbing stdout). The lint
/// fixtures opt in so the self-test can seed violations.
bool stdout_banned(const std::string& path) {
  if (contains(path, "lint_fixtures")) return true;
  return contains(path, "src/") && !contains(path, "src/obs/export");
}

/// Concurrency rules: library code under src/, plus the tsa_* fixtures that
/// seed violations for the self-test.
bool in_concurrency_scope(const std::string& path) {
  return contains(path, "src/") || contains(path, "lint_fixtures/tsa_");
}

/// The farm-shared-state rule: the worker-pool library itself, plus its
/// seeded fixture (which also matches the tsa_ concurrency opt-in above, so
/// fixture lines carry markers for every rule that fires on them).
bool in_farm_scope(const std::string& path) {
  return contains(path, "src/farm/") ||
         contains(path, "lint_fixtures/tsa_farm");
}

/// The blocking-call-in-handler rule: the svc command-handler layer only —
/// session (worker-side handlers) and service (reader-side dispatch). The
/// transport (server.cpp) and client legitimately block on fds, so they are
/// deliberately out of scope; the svc_handler fixture seeds violations.
bool in_svc_handler_scope(const std::string& path) {
  return contains(path, "src/svc/session") ||
         contains(path, "src/svc/service") ||
         contains(path, "lint_fixtures/svc_handler");
}

// --- Banned patterns --------------------------------------------------------

/// A rule that is one pattern: every match in a file the rule applies to is
/// a finding, except in the rule's one exempt file (a path suffix; empty for
/// none).
struct BannedPattern {
  const char* rule;
  std::regex pattern;
  bool (*applies)(const std::string& path);
  const char* exempt;
  const char* message;
};

const std::vector<BannedPattern>& banned_patterns() {
  static const std::vector<BannedPattern> table = {
      {"raw-cost-double",
       std::regex(R"(\bdouble\s+[A-Za-z_]\w*(?:_cost\w*|_mc|_bytes|_secs)\b)"),
       everywhere, "common/units.hpp",
       "cost/size/time quantity typed as raw double; use the types in "
       "common/units.hpp"},
      {"raw-rng", std::regex(R"(\b(?:srand|rand)\s*\(|\brandom_device\b)"),
       everywhere, "common/rng.hpp",
       "unseeded/global RNG; use lips::Rng (common/rng.hpp)"},
      {"nondet-time",
       std::regex(R"(\b(?:system_clock|steady_clock|high_resolution_clock)\b)"
                  R"(|\bgettimeofday\b|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\))"
                  R"(|\bclock\s*\(\s*\))"),
       outside_bench, "",
       "wall-clock read in deterministic code; thread simulated time "
       "through instead"},
      {"raw-stdout-in-lib", std::regex(R"(\bstd\s*::\s*cout\b|\bprintf\s*\()"),
       stdout_banned, "",
       "printf/std::cout in src/ library code; return data or write through "
       "an obs exporter's ostream instead"},
      {"raw-mutex",
       std::regex(R"(\bstd\s*::\s*(?:recursive_|timed_|recursive_timed_)"
                  R"(|shared_|shared_timed_)?mutex\b)"
                  R"(|\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock)"
                  R"(|shared_lock)\b)"),
       in_concurrency_scope, "common/thread_annotations.hpp",
       "raw std::mutex/lock is invisible to clang -Wthread-safety; use "
       "lips::Mutex + lips::MutexLock (common/thread_annotations.hpp)"},
      // One worker thread serves every queued command of a session; sleeps,
      // synchronous file streams and fd/socket waits belong in the transport
      // (server.cpp) or the ckpt/obs layers the handlers call through.
      {"blocking-call-in-handler",
       std::regex(R"((?:\bsleep_for\b|\bsleep_until\b|\busleep\s*\()"
                  R"(|\bnanosleep\s*\(|\bsleep\s*\(|\b[io]?fstream\b(?!>))"
                  R"(|\bfopen\s*\(|\bfreopen\s*\(|\bread\s*\(|\brecv\s*\()"
                  R"(|\brecvfrom\s*\(|\baccept\s*\(|\bpoll\s*\(|\bselect\s*\()"
                  R"(|\bconnect\s*\(|\bwaitpid\s*\(|\bgetchar\s*\()"
                  R"(|\bscanf\s*\())"),
       in_svc_handler_scope, "",
       "blocking primitive in a svc command handler; handlers run on the "
       "session's only worker thread — push waits into the transport or a "
       "lower layer"},
  };
  return table;
}

// --- Structural pass --------------------------------------------------------

/// One top-level member statement inside a class body (text up to and
/// including its terminating ';', nested braces collapsed).
struct MemberStmt {
  std::size_t offset = 0;  // into the file's stripped code
  std::string text;
};

struct ClassInfo {
  std::string name;
  std::string head;             // between the class keyword and the '{'
  std::size_t body_begin = 0;   // offset just past '{'
  std::size_t body_end = 0;     // offset of matching '}'
  std::vector<MemberStmt> members;
};

/// Brace-matched scan for class/struct definitions. Handles annotation
/// macros and base clauses in the head; skips `enum class`. Nested classes
/// are recorded separately (their bodies are excluded from the parent's
/// member statements by the depth tracking below).
std::vector<ClassInfo> parse_classes(const std::string& code) {
  std::vector<ClassInfo> out;
  static const std::regex head_re(
      R"((class|struct)\s+((?:LIPS_[A-Z_]+\s*(?:\([^()]*\))?\s+)*)()"
      R"([A-Za-z_]\w*)\s*(?:final\s*)?((?::[^;{]*)?)\{)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), head_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t at = static_cast<std::size_t>(it->position());
    // Reject `enum class` / `enum struct`.
    std::size_t back = at;
    while (back > 0 && (code[back - 1] == ' ' || code[back - 1] == '\n'))
      --back;
    if (back >= 4 && code.compare(back - 4, 4, "enum") == 0) continue;
    ClassInfo ci;
    ci.name = (*it)[3].str();
    ci.head = (*it)[2].str() + (*it)[4].str();
    ci.body_begin = at + static_cast<std::size_t>(it->length());
    // Match the brace.
    int depth = 1;
    std::size_t i = ci.body_begin;
    for (; i < code.size() && depth > 0; ++i) {
      if (code[i] == '{') ++depth;
      if (code[i] == '}') --depth;
    }
    if (depth != 0) continue;  // unbalanced (macro soup) — skip the class
    ci.body_end = i - 1;
    // Top-level member statements: split on ';' at depth 0 relative to the
    // body, collapsing nested {...} (member functions, nested types) so a
    // function body's contents never masquerade as a declaration.
    std::string stmt;
    std::size_t stmt_begin = ci.body_begin;
    int nest = 0;
    for (std::size_t p = ci.body_begin; p < ci.body_end; ++p) {
      const char c = code[p];
      if (c == '{') {
        ++nest;
        continue;
      }
      if (c == '}') {
        --nest;
        // A '}' closing a member-function body also ends a "statement".
        if (nest == 0) {
          stmt.clear();
          stmt_begin = p + 1;
        }
        continue;
      }
      if (nest > 0) continue;
      if (stmt.empty()) {
        // Never start a statement on whitespace: findings anchor to the
        // first token's line, not the previous declaration's newline.
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
        stmt_begin = p;
      }
      stmt += c;
      if (c == ';') {
        ci.members.push_back({stmt_begin, stmt});
        stmt.clear();
        stmt_begin = p + 1;
      }
    }
    out.push_back(std::move(ci));
  }
  return out;
}

/// A LIPS_EXTERNALLY_SYNCHRONIZED or LIPS_PER_THREAD head marker states the
/// thread role of the whole class.
bool declares_thread_role(const ClassInfo& ci) {
  return contains(ci.head, "LIPS_EXTERNALLY_SYNCHRONIZED") ||
         contains(ci.head, "LIPS_PER_THREAD");
}

/// The name of the mutable data member that member statement `t` declares
/// without a thread annotation, or "" when it declares anything else: a
/// function, a reference (not reseatable), a const/static/atomic member, a
/// type or alias, a by-value Mutex, or a member already marked
/// LIPS_GUARDED_BY / LIPS_PER_THREAD.
std::string unannotated_data_member(const std::string& t) {
  static const std::regex mutex_value(R"(\bMutex\s+[A-Za-z_])");
  static const std::regex immutable(
      R"(\b(?:static|const|constexpr|using|typedef)"
      R"(|friend|atomic|enum|class|struct)\b)");
  static const std::regex data_member(
      R"(\b(?:[A-Za-z_][\w:<>,&*\s]*?)\s[&*]?([A-Za-z_]\w*)\s*(?:;|=|\{))");
  if (contains(t, "LIPS_GUARDED_BY") || contains(t, "LIPS_PER_THREAD"))
    return "";
  if (std::regex_search(t, mutex_value) || std::regex_search(t, immutable))
    return "";
  const std::size_t paren = t.find('(');
  const std::size_t init = std::min(t.find('='), t.find('{'));
  if (paren != std::string::npos &&
      (init == std::string::npos || paren < init))
    return "";  // member function
  if (contains(t, "&") && !contains(t, "&&") && paren == std::string::npos &&
      init == std::string::npos)
    return "";  // reference member
  std::smatch sm;
  if (!std::regex_search(t, sm, data_member)) return "";
  return sm[1].str();
}

// --- The per-file engine ----------------------------------------------------

struct FileLint {
  std::string path;
  std::vector<std::string> raw_lines;
  std::string code;  // comment/string-stripped, newline-preserving
  std::vector<ClassInfo> classes;
  std::set<std::string> unordered_names;
  std::set<std::string> lp_solution_names;

  std::vector<Finding> findings;

  bool load() {
    std::ifstream in(path);
    if (!in) return false;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    code = strip_to_code(text);
    std::string line;
    std::stringstream ls(text);
    while (std::getline(ls, line)) raw_lines.push_back(line);
    return true;
  }

  /// Every name the first capture group of `decl` declares in the file.
  std::set<std::string> declared(const std::regex& decl) const {
    std::set<std::string> names;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), decl);
         it != std::sregex_iterator(); ++it)
      names.insert((*it)[1].str());
    return names;
  }

  void parse() {
    classes = parse_classes(code);
    static const std::regex unordered(
        R"(\bunordered_(?:map|set)\s*<[^;{]*?>\s+([A-Za-z_]\w*))");
    static const std::regex solution(R"(\bLpSolution\s+([A-Za-z_]\w*)\s*[=;])");
    unordered_names = declared(unordered);
    lp_solution_names = declared(solution);
  }

  bool suppressed(std::size_t line_no, const std::string& rule) const {
    if (line_no == 0 || line_no > raw_lines.size()) return false;
    return contains(raw_lines[line_no - 1], "lips-lint: allow(" + rule + ")");
  }

  void add(std::size_t line_no, const std::string& rule,
           const std::string& message) {
    if (suppressed(line_no, rule)) return;
    findings.push_back({path, line_no, rule, message});
  }

  void scan_regex(const std::regex& re, const std::string& rule,
                  const std::string& message) {
    for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
         it != std::sregex_iterator(); ++it) {
      add(line_of(code, static_cast<std::size_t>(it->position())), rule,
          message);
    }
  }

  /// Offset of every non-const static data declaration, and whether it is
  /// thread_local. A declarator that reaches `(` before any `=` is a
  /// function, not data.
  std::vector<std::pair<std::size_t, bool>> mutable_statics() const {
    static const std::regex keyword(R"(\bstatic\b)");
    static const std::regex constant(R"(\bconst(?:expr|init)?\b)");
    std::vector<std::pair<std::size_t, bool>> out;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), keyword);
         it != std::sregex_iterator(); ++it) {
      const std::size_t at = static_cast<std::size_t>(it->position());
      const std::size_t after = at + 6;
      // Declaration text up to the terminator; bounded so a parse mishap
      // cannot scan the whole file.
      const std::size_t end = code.find_first_of(";{", after);
      if (end == std::string::npos || end - after > 500) continue;
      const std::string decl = code.substr(after, end - after);
      if (std::regex_search(decl, constant)) continue;
      const std::size_t paren = decl.find('(');
      const std::size_t eq = decl.find('=');
      if (paren != std::string::npos &&
          (eq == std::string::npos || paren < eq))
        continue;
      // An empty declarator ("static;" after macro stripping) is noise.
      if (decl.find_first_not_of(" \t\n\r\f\v") == std::string::npos)
        continue;
      out.emplace_back(at, contains(decl, "thread_local"));
    }
    return out;
  }

  // --- Rules ----------------------------------------------------------------

  void rule_banned_patterns() {
    for (const BannedPattern& b : banned_patterns()) {
      if (!b.applies(path) || (*b.exempt != '\0' && ends_with(path, b.exempt)))
        continue;
      scan_regex(b.pattern, b.rule, b.message);
    }
  }

  void rule_unordered_iteration() {
    for (const std::string& name : unordered_names) {
      const std::regex iter(R"(for\s*\([^;()]*:\s*)" + name + R"(\s*\))" +
                            "|" + R"(\b)" + name + R"(\s*\.\s*begin\s*\()");
      scan_regex(iter, "unordered-iteration",
                 "iteration over std::unordered container '" + name +
                     "' has implementation-defined order; use std::map/"
                     "std::set or sort first");
    }
  }

  void rule_unchecked_solve_status() {
    // A solution's values are only meaningful when its status was
    // inspected; a solve that hit IterationLimit or proved the model
    // Infeasible hands back empty or stale vectors.
    for (const std::string& name : lp_solution_names) {
      const std::regex checked(R"(\b)" + name +
                               R"(\s*\.\s*(?:status\b|optimal\s*\())");
      if (std::regex_search(code, checked)) continue;
      const std::regex use(R"(\b)" + name +
                           R"(\s*\.\s*(?:values|objective)\b)");
      scan_regex(use, "unchecked-solve-status",
                 "LpSolution '" + name +
                     "' consumed without inspecting .status/.optimal(); "
                     "guard IterationLimit/Infeasible before using its "
                     "values");
    }
  }

  void rule_shared_mutable_static() {
    if (!in_concurrency_scope(path)) return;
    // thread_local statics are per-thread by definition (the sanctioned
    // escape hatch for genuinely-needed function-scope state).
    for (const auto& [at, thread_local_static] : mutable_statics()) {
      if (thread_local_static) continue;
      add(line_of(code, at), "shared-mutable-static",
          "mutable static is shared state across every farm worker; make it "
          "const, per-instance, or static thread_local");
    }
  }

  void rule_rng_by_ref_escape() {
    if (!in_concurrency_scope(path)) return;
    static const std::regex member_re(
        R"(\bRng\s*[&*]\s*(?:const\s+)?([A-Za-z_]\w*)\s*(?:;|=|\{))");
    for (const ClassInfo& ci : classes) {
      if (declares_thread_role(ci)) continue;
      for (const MemberStmt& m : ci.members) {
        std::smatch sm;
        if (!std::regex_search(m.text, sm, member_re)) continue;
        if (contains(m.text, "LIPS_PER_THREAD")) continue;
        add(line_of(code, m.offset + static_cast<std::size_t>(sm.position())),
            "rng-by-ref-escape",
            "class '" + ci.name + "' stores an Rng reference ('" +
                sm[1].str() +
                "') without LIPS_PER_THREAD; a stored stream escapes its "
                "owner thread and breaks seed reproducibility");
      }
    }
  }

  void rule_unguarded_member_mutation() {
    if (!in_concurrency_scope(path)) return;
    // A by-value lips::Mutex member marks the class as internally
    // synchronized; every mutable member must then be visible to the
    // analysis. (Mutex& members — MutexLock-style RAII — do not count.)
    static const std::regex mutex_member(
        R"(\b(?:lips\s*::\s*)?(?:mutable\s+)?Mutex\s+[A-Za-z_]\w*\s*;)");
    for (const ClassInfo& ci : classes) {
      const bool holds_mutex =
          std::any_of(ci.members.begin(), ci.members.end(),
                      [](const MemberStmt& m) {
                        return std::regex_search(m.text, mutex_member);
                      });
      if (!holds_mutex) continue;
      for (const MemberStmt& m : ci.members) {
        const std::string name = unannotated_data_member(m.text);
        if (name.empty()) continue;
        add(line_of(code, m.offset), "unguarded-member-mutation",
            "member '" + name + "' of mutex-holding class '" + ci.name +
                "' lacks LIPS_GUARDED_BY(<mutex>); unguarded members are "
                "invisible to -Wthread-safety");
      }
    }
  }

  void rule_farm_shared_state() {
    if (!in_farm_scope(path)) return;
    // Statics, thread_local included: pool threads are reused across
    // batches and cells, so thread_local state survives from one run into
    // the next and makes a result depend on which worker executed it.
    for (const auto& [at, thread_local_static] : mutable_statics()) {
      add(line_of(code, at), "farm-shared-state",
          thread_local_static
              ? "thread_local static in farm code outlives a run: pool "
                "threads are reused, so sticky per-thread state breaks "
                "serial-vs-threaded bit-identity; pass state through "
                "run-local objects instead"
              : "mutable static in farm code is shared across workers; the "
                "farm's determinism contract requires all mutable state to "
                "be run-local");
    }
    // Every farm class must declare its thread role, at its head or on
    // each mutable data member.
    for (const ClassInfo& ci : classes) {
      if (declares_thread_role(ci)) continue;
      for (const MemberStmt& m : ci.members) {
        const std::string name = unannotated_data_member(m.text);
        if (name.empty()) continue;
        add(line_of(code, m.offset), "farm-shared-state",
            "member '" + name + "' of farm class '" + ci.name +
                "' has no declared thread role; mark the class "
                "LIPS_EXTERNALLY_SYNCHRONIZED / LIPS_PER_THREAD or annotate "
                "the member (DESIGN.md §13 determinism contract)");
      }
    }
  }

  void run() {
    parse();
    rule_banned_patterns();
    rule_unordered_iteration();
    rule_unchecked_solve_status();
    rule_shared_mutable_static();
    rule_rng_by_ref_escape();
    rule_unguarded_member_mutation();
    rule_farm_shared_state();
  }
};

/// Self-test: the fixtures seed violations, each tagged with
/// `// lint-expect(<rule>)`. Pass iff findings and markers agree exactly.
int self_test(const FileLint& f) {
  std::set<std::pair<std::size_t, std::string>> expected;
  static const std::regex marker(R"(lint-expect\(([a-z-]+)\))");
  for (std::size_t i = 0; i < f.raw_lines.size(); ++i) {
    for (auto it = std::sregex_iterator(f.raw_lines[i].begin(),
                                        f.raw_lines[i].end(), marker);
         it != std::sregex_iterator(); ++it)
      expected.insert({i + 1, (*it)[1].str()});
  }
  std::set<std::pair<std::size_t, std::string>> got;
  for (const Finding& fd : f.findings) got.insert({fd.line, fd.rule});
  int failures = 0;
  for (const auto& [line, rule] : expected) {
    if (!got.count({line, rule})) {
      std::cerr << f.path << ":" << line << ": self-test: expected rule '"
                << rule << "' did not fire\n";
      ++failures;
    }
  }
  for (const auto& [line, rule] : got) {
    if (!expected.count({line, rule})) {
      std::cerr << f.path << ":" << line << ": self-test: unexpected finding '"
                << rule << "'\n";
      ++failures;
    }
  }
  if (failures == 0)
    std::cout << f.path << ": self-test OK (" << expected.size()
              << " seeded violations all detected)\n";
  return failures == 0 ? 0 : 1;
}

constexpr const char* kUsage = "usage: lips_lint [--self-test] <file>...\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "lips_lint: unknown option " << arg << "\n" << kUsage;
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::cerr << "lips_lint: no input files\n";
    return 2;
  }
  int exit_code = 0;
  std::size_t findings = 0;
  for (const std::string& path : files) {
    FileLint f;
    f.path = path;
    if (!f.load()) {
      std::cerr << "lips_lint: cannot read " << path << "\n";
      exit_code = 2;
      continue;
    }
    f.run();
    if (self) {
      if (self_test(f) != 0) exit_code = 1;
      continue;
    }
    // The one output format; CI's "Lint annotations" step parses it, and
    // the lint_text_format test holds the tool to that step's pattern.
    for (const Finding& fd : f.findings)
      std::cerr << fd.file << ":" << fd.line << ": [" << fd.rule << "] "
                << fd.message << "\n";
    findings += f.findings.size();
  }
  if (self) return exit_code;
  if (findings == 0) {
    std::cout << "lips-lint: " << files.size() << " files clean\n";
  } else {
    std::cout << "lips-lint: " << findings << " finding(s)\n";
    if (exit_code == 0) exit_code = 1;
  }
  return exit_code;
}
