// lips-lint — multi-pass source-tree checker for the invariants the test
// suite cannot see at runtime:
//
//   * cost correctness — every dollar-bearing quantity must travel through
//     the dimensional types in common/units.hpp, never as a raw double;
//   * determinism — no unseeded randomness, no iteration order leaking from
//     unordered containers into schedules or bills, no wall-clock reads;
//   * concurrency safety — ahead of the simulation farm, shared mutable
//     state must be impossible to introduce silently: no raw std::mutex
//     (the annotated lips::Mutex participates in clang -Wthread-safety),
//     no mutable statics, no un-annotated escape of per-thread Rng streams,
//     no unguarded members in mutex-holding classes.
//
// Engine: each file runs through four passes that build on each other —
//
//   1. lexical    read the file; strip comments and string/char literals to
//                 spaces (newlines kept) so later passes only see code;
//   2. structural brace-matched scan recording every class/struct extent
//                 (name, head, body range, top-level member statements);
//   3. symbols    collect per-file declaration state: unordered-container
//                 names, LpSolution names, per-class mutex/Rng members;
//   4. rules      evaluate every rule against the parsed state.
//
// Rules (suppress a single line with `// lips-lint: allow(<rule>)`):
//
//   raw-cost-double      double-typed *_cost* / *_mc / *_bytes / *_secs
//                        declaration outside common/units.hpp
//   raw-rng              rand()/srand()/std::random_device outside
//                        common/rng.hpp (use lips::Rng)
//   unordered-iteration  range-for or .begin() over a std::unordered_map/
//                        unordered_set declared in the same file
//   float-type           `float` anywhere (the cost model is double-only;
//                        mixing widths changes rounding)
//   nondet-time          system_clock / steady_clock / high_resolution_clock
//                        / gettimeofday / time(nullptr) / clock() outside
//                        bench/ (benchmarks measure wall time by design)
//   raw-stdout-in-lib    printf/std::cout inside src/ library code — library
//                        layers report through return values, exceptions, or
//                        the obs exporters (which take a caller-supplied
//                        ostream); only the obs exporters and the tools/
//                        binaries own process stdout
//   unchecked-solve-status
//                        an LpSolution's .values/.objective consumed while
//                        the file never inspects that solution's .status or
//                        .optimal() — IterationLimit/Infeasible solutions
//                        carry empty or stale vectors, so acting on them
//                        silently schedules garbage
//   unordered-serialize  any std::unordered_* container inside src/ckpt/ —
//                        snapshot byte streams must be byte-stable
//                        (ckpt/codec.hpp), and hash-order anywhere in the
//                        serialization layer is a latent nondeterminism bug
//                        even before someone iterates it; use std::map/
//                        std::set (layers above may keep unordered state but
//                        must serialize a sorted copy)
//   shared-mutable-static
//                        non-const static data at namespace or function
//                        scope in src/ — a mutable static is shared by every
//                        farm worker by definition; make it const, per-
//                        instance state, or `static thread_local` (exempt).
//                        Heuristic: a static whose declarator reaches `(`
//                        before any `=`/`;` is treated as a function
//                        declaration; spell static-object initializers with
//                        `=` or `{}` so the linter can see them
//   raw-mutex            std::mutex / std::lock_guard / friends outside
//                        common/thread_annotations.hpp — lips::Mutex and
//                        lips::MutexLock carry the clang thread-safety
//                        capability annotations; a raw mutex is invisible
//                        to -Wthread-safety
//   rng-by-ref-escape    class member storing `Rng&`/`Rng*` without a
//                        LIPS_PER_THREAD marker on the member or an
//                        externally-synchronized marker on the class — a
//                        stored stream reference is how one Rng silently
//                        ends up drawn from two threads (or re-ordered),
//                        breaking seed reproducibility
//   unguarded-member-mutation
//                        a class holding a by-value lips::Mutex member has a
//                        mutable data member with no LIPS_GUARDED_BY(...)
//                        annotation — the member is invisible to clang's
//                        analysis, so a lock-free access would compile
//                        silently. Atomics, const/static members, and
//                        LIPS_PER_THREAD-marked members are exempt
//   farm-shared-state    (src/farm/ only) the farm's serial-vs-threaded
//                        bit-identity contract bans hidden shared or sticky
//                        state: any non-const static — *including*
//                        thread_local, which leaks state between runs when
//                        pool threads are reused — and any mutable data
//                        member of a class that does not declare its thread
//                        role (a LIPS_EXTERNALLY_SYNCHRONIZED or
//                        LIPS_PER_THREAD head marker, or a per-member
//                        LIPS_GUARDED_BY/LIPS_PER_THREAD annotation)
//   blocking-call-in-handler
//                        (src/svc/session*, src/svc/service* only) a raw
//                        blocking primitive — sleeps, synchronous fstream/
//                        fopen, fd reads, socket waits (accept/recv/poll/
//                        select/connect) — inside the service's command-
//                        handler layer, which runs on each session's single
//                        worker thread; a blocked handler stalls the whole
//                        tenant behind the bounded queue
//
// The four concurrency rules apply under src/ (and to lint_fixtures/tsa_*
// files, which opt in so the self-test can seed violations);
// farm-shared-state applies under src/farm/ (and lint_fixtures/tsa_farm*);
// blocking-call-in-handler applies to the svc handler layer (and
// lint_fixtures/svc_handler*).
//
// Usage:
//   lips_lint [--format=json] <file>...   lint; exit 1 if any finding
//   lips_lint --self-test <file>...       every finding must match a
//                                         `// lint-expect(<rule>)` marker on
//                                         its line, and every marker must
//                                         fire
//
// Tree scans skip any path with a directory component starting with "build"
// (configured build trees: build/, build-asan/, ...) and anything under
// bench/results/ (committed benchmark artifacts) so a stray generated or
// vendored file can never produce phantom findings.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

// --- Pass 1: lexical --------------------------------------------------------

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

// --- Path gating ------------------------------------------------------------

bool in_bench(const std::string& path) {
  return path.find("bench/") != std::string::npos;
}

/// Checkpoint serialization layer, subject to unordered-serialize. Only the
/// ckpt fixture opts in (violations.cpp seeds unordered containers for the
/// unordered-iteration rule and must not trip this one).
bool in_ckpt_layer(const std::string& path) {
  return path.find("src/ckpt/") != std::string::npos ||
         path.find("lint_fixtures/ckpt") != std::string::npos;
}

/// Library source subject to raw-stdout-in-lib: everything under src/ except
/// the obs exporters (whose whole job is formatting to a stream; they still
/// take the ostream from the caller rather than grabbing stdout). The lint
/// fixture opts in so the self-test can seed violations.
bool stdout_banned(const std::string& path) {
  if (path.find("lint_fixtures") != std::string::npos) return true;
  return path.find("src/") != std::string::npos &&
         path.find("src/obs/export") == std::string::npos;
}

/// Concurrency rules: library code under src/, plus the tsa_* fixtures that
/// seed violations for the self-test.
bool in_concurrency_scope(const std::string& path) {
  return path.find("src/") != std::string::npos ||
         path.find("lint_fixtures/tsa_") != std::string::npos;
}

/// The farm-shared-state rule: the worker-pool library itself, plus its
/// seeded fixture (which also matches the tsa_ concurrency opt-in above, so
/// fixture lines carry markers for every rule that fires on them).
bool in_farm_scope(const std::string& path) {
  return path.find("src/farm/") != std::string::npos ||
         path.find("lint_fixtures/tsa_farm") != std::string::npos;
}

/// The blocking-call-in-handler rule: the svc command-handler layer only —
/// session (worker-side handlers) and service (reader-side dispatch). The
/// transport (server.cpp) and client legitimately block on fds, so they are
/// deliberately out of scope; the svc_handler fixture seeds violations.
bool in_svc_handler_scope(const std::string& path) {
  return path.find("src/svc/session") != std::string::npos ||
         path.find("src/svc/service") != std::string::npos ||
         path.find("lint_fixtures/svc_handler") != std::string::npos;
}

/// Tree-scan exclusion: configured build trees (any directory component
/// starting with "build": build/, build-asan/, build.rel/, ...) and the
/// committed benchmark artifacts under bench/results/. Only directory
/// components count — a *file* named build_info.cpp is still linted.
bool excluded_from_scan(const std::string& path) {
  std::vector<std::string> comps;
  std::string comp;
  std::stringstream ss(path);
  while (std::getline(ss, comp, '/')) comps.push_back(comp);
  if (!comps.empty()) comps.pop_back();  // drop the filename component
  for (std::size_t i = 0; i < comps.size(); ++i) {
    if (comps[i].rfind("build", 0) == 0) return true;
    if (comps[i] == "results" && i > 0 && comps[i - 1] == "bench") return true;
  }
  return false;
}

// --- Pass 2: structural -----------------------------------------------------

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

// --- The per-file engine ----------------------------------------------------

struct FileLint {
  std::string path;
  // Pass 1 state.
  std::vector<std::string> raw_lines;
  std::string code;  // comment/string-stripped, newline-preserving
  // Pass 2 state.
  std::vector<ClassInfo> classes;
  // Pass 3 state.
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

  void parse() {
    classes = parse_classes(code);
    {
      static const std::regex decl(
          R"(\bunordered_(?:map|set)\s*<[^;{]*?>\s+([A-Za-z_]\w*))");
      for (auto it = std::sregex_iterator(code.begin(), code.end(), decl);
           it != std::sregex_iterator(); ++it)
        unordered_names.insert((*it)[1].str());
    }
    {
      static const std::regex decl(R"(\bLpSolution\s+([A-Za-z_]\w*)\s*[=;])");
      for (auto it = std::sregex_iterator(code.begin(), code.end(), decl);
           it != std::sregex_iterator(); ++it)
        lp_solution_names.insert((*it)[1].str());
    }
  }

  bool suppressed(std::size_t line_no, const std::string& rule) const {
    if (line_no == 0 || line_no > raw_lines.size()) return false;
    return raw_lines[line_no - 1].find("lips-lint: allow(" + rule + ")") !=
           std::string::npos;
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

  // --- Pass 4: rules --------------------------------------------------------

  void rule_raw_cost_double() {
    if (ends_with(path, "common/units.hpp")) return;
    static const std::regex re(
        R"(\bdouble\s+[A-Za-z_]\w*(?:_cost\w*|_mc|_bytes|_secs)\b)");
    scan_regex(re, "raw-cost-double",
               "cost/size/time quantity typed as raw double; use the "
               "types in common/units.hpp");
  }

  void rule_raw_rng() {
    if (ends_with(path, "common/rng.hpp")) return;
    static const std::regex re(R"(\b(?:srand|rand)\s*\(|\brandom_device\b)");
    scan_regex(re, "raw-rng",
               "unseeded/global RNG; use lips::Rng (common/rng.hpp)");
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

  void rule_float_type() {
    static const std::regex re(R"(\bfloat\b)");
    scan_regex(re, "float-type",
               "float narrows the cost model's precision; use double or a "
               "units.hpp type");
  }

  void rule_nondet_time() {
    if (in_bench(path)) return;
    static const std::regex re(
        R"(\b(?:system_clock|steady_clock|high_resolution_clock)\b)"
        R"(|\bgettimeofday\b|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\))"
        R"(|\bclock\s*\(\s*\))");
    scan_regex(re, "nondet-time",
               "wall-clock read in deterministic code; thread simulated "
               "time through instead");
  }

  void rule_raw_stdout_in_lib() {
    if (!stdout_banned(path)) return;
    static const std::regex re(R"(\bstd\s*::\s*cout\b|\bprintf\s*\()");
    scan_regex(re, "raw-stdout-in-lib",
               "printf/std::cout in src/ library code; return data or "
               "write through an obs exporter's ostream instead");
  }

  void rule_unordered_serialize() {
    // The checkpoint layer turns state into bytes, and hash iteration order
    // would leak straight into CRC-guarded files; ban the containers
    // outright there rather than auditing every loop.
    if (!in_ckpt_layer(path)) return;
    static const std::regex re(
        R"(\bunordered_(?:map|set|multimap|multiset)\b)");
    scan_regex(re, "unordered-serialize",
               "unordered container in checkpoint serialization code; "
               "snapshot bytes must be deterministic — use std::map/"
               "std::set (or serialize a sorted copy upstream)");
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
    static const std::regex re(R"(\bstatic\b)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
         it != std::sregex_iterator(); ++it) {
      const std::size_t at = static_cast<std::size_t>(it->position());
      const std::size_t after = at + 6;
      // static_cast / static_assert are keywords of their own.
      if (code.compare(after, 1, "_") == 0) continue;
      // Declaration text up to the terminator; bounded so a parse mishap
      // cannot scan the whole file.
      const std::size_t end = code.find_first_of(";{", after);
      if (end == std::string::npos || end - after > 500) continue;
      const std::string decl = code.substr(after, end - after);
      // const/constexpr statics are immutable — shared reads are fine.
      if (std::regex_search(decl, std::regex(R"(\bconst(?:expr|init)?\b)")))
        continue;
      // thread_local statics are per-thread by definition (the sanctioned
      // escape hatch for genuinely-needed function-scope state).
      if (decl.find("thread_local") != std::string::npos) continue;
      // Function heuristic: a '(' before any '=' marks a declarator with a
      // parameter list (static member/free function) — not shared data.
      const std::size_t paren = decl.find('(');
      const std::size_t eq = decl.find('=');
      if (paren != std::string::npos &&
          (eq == std::string::npos || paren < eq))
        continue;
      // An empty declarator ("static;" after macro stripping) is noise.
      if (std::regex_search(
              decl, std::regex(R"(^\s*$)")))
        continue;
      add(line_of(code, at), "shared-mutable-static",
          "mutable static is shared state across every farm worker; make it "
          "const, per-instance, or static thread_local");
    }
  }

  void rule_raw_mutex() {
    if (!in_concurrency_scope(path)) return;
    if (ends_with(path, "common/thread_annotations.hpp")) return;
    static const std::regex re(
        R"(\bstd\s*::\s*(?:recursive_|timed_|recursive_timed_|shared_)"
        R"(|shared_timed_)?mutex\b)"
        R"(|\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b)");
    scan_regex(re, "raw-mutex",
               "raw std::mutex/lock is invisible to clang -Wthread-safety; "
               "use lips::Mutex + lips::MutexLock "
               "(common/thread_annotations.hpp)");
  }

  void rule_rng_by_ref_escape() {
    if (!in_concurrency_scope(path)) return;
    static const std::regex member_re(
        R"(\bRng\s*[&*]\s*(?:const\s+)?([A-Za-z_]\w*)\s*(?:;|=|\{))");
    for (const ClassInfo& ci : classes) {
      // A class annotated externally-synchronized / per-thread owns its
      // synchronization story wholesale.
      const bool class_marked =
          ci.head.find("LIPS_EXTERNALLY_SYNCHRONIZED") != std::string::npos ||
          ci.head.find("LIPS_PER_THREAD") != std::string::npos;
      if (class_marked) continue;
      for (const MemberStmt& m : ci.members) {
        std::smatch sm;
        if (!std::regex_search(m.text, sm, member_re)) continue;
        if (m.text.find("LIPS_PER_THREAD") != std::string::npos) continue;
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
        R"(\b(?:lips\s*::\s*)?(?:mutable\s+)?Mutex\s+([A-Za-z_]\w*)\s*;)");
    static const std::regex data_member(
        R"(\b(?:[A-Za-z_][\w:<>,&*\s]*?)\s[&*]?([A-Za-z_]\w*)\s*(?:;|=|\{))");
    for (const ClassInfo& ci : classes) {
      std::set<std::string> mutex_names;
      for (const MemberStmt& m : ci.members) {
        std::smatch sm;
        std::string rest = m.text;
        while (std::regex_search(rest, sm, mutex_member)) {
          mutex_names.insert(sm[1].str());
          rest = sm.suffix();
        }
      }
      if (mutex_names.empty()) continue;
      for (const MemberStmt& m : ci.members) {
        const std::string& t = m.text;
        // Skip: the mutexes themselves, functions (parameter list before
        // any initializer), immutable/static/atomic members, references
        // (non-reseatable), using/typedef/friend declarations, and members
        // already annotated or explicitly marked per-thread.
        if (t.find("LIPS_GUARDED_BY") != std::string::npos) continue;
        if (t.find("LIPS_PER_THREAD") != std::string::npos) continue;
        if (std::regex_search(t, std::regex(R"(\bMutex\s+[A-Za-z_])")))
          continue;
        if (std::regex_search(
                t, std::regex(R"(\b(?:static|const|constexpr|using|typedef)"
                              R"(|friend|atomic|enum|class|struct)\b)")))
          continue;
        const std::size_t paren = t.find('(');
        const std::size_t eq = t.find('=');
        const std::size_t brace = t.find('{');
        const std::size_t init = std::min(eq, brace);
        if (paren != std::string::npos &&
            (init == std::string::npos || paren < init))
          continue;
        if (t.find('&') != std::string::npos &&
            t.find("&&") == std::string::npos && paren == std::string::npos &&
            init == std::string::npos)
          continue;
        std::smatch sm;
        if (!std::regex_search(t, sm, data_member)) continue;
        add(line_of(code, m.offset), "unguarded-member-mutation",
            "member '" + sm[1].str() + "' of mutex-holding class '" + ci.name +
                "' lacks LIPS_GUARDED_BY(<mutex>); unguarded members are "
                "invisible to -Wthread-safety");
      }
    }
  }

  void rule_farm_shared_state() {
    if (!in_farm_scope(path)) return;
    // Part 1: statics. Stricter than shared-mutable-static — thread_local
    // is NOT exempt here. Pool threads are reused across batches and cells,
    // so thread_local state survives from one run into the next and makes a
    // result depend on which worker executed it: exactly the failure the
    // farm's bit-identity contract forbids.
    {
      static const std::regex re(R"(\bstatic\b)");
      for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
           it != std::sregex_iterator(); ++it) {
        const std::size_t at = static_cast<std::size_t>(it->position());
        const std::size_t after = at + 6;
        if (code.compare(after, 1, "_") == 0) continue;  // static_cast/assert
        const std::size_t end = code.find_first_of(";{", after);
        if (end == std::string::npos || end - after > 500) continue;
        const std::string decl = code.substr(after, end - after);
        if (std::regex_search(decl, std::regex(R"(\bconst(?:expr|init)?\b)")))
          continue;
        const std::size_t paren = decl.find('(');
        const std::size_t eq = decl.find('=');
        if (paren != std::string::npos &&
            (eq == std::string::npos || paren < eq))
          continue;  // function declarator, not data
        if (std::regex_search(decl, std::regex(R"(^\s*$)"))) continue;
        const bool tl = decl.find("thread_local") != std::string::npos;
        add(line_of(code, at), "farm-shared-state",
            tl ? "thread_local static in farm code outlives a run: pool "
                 "threads are reused, so sticky per-thread state breaks "
                 "serial-vs-threaded bit-identity; pass state through "
                 "run-local objects instead"
               : "mutable static in farm code is shared across workers; "
                 "the farm's determinism contract requires all mutable "
                 "state to be run-local");
      }
    }
    // Part 2: every farm class must declare its thread role. A head marker
    // (LIPS_EXTERNALLY_SYNCHRONIZED / LIPS_PER_THREAD) covers the whole
    // class; otherwise each mutable data member needs its own annotation.
    for (const ClassInfo& ci : classes) {
      const bool class_marked =
          ci.head.find("LIPS_EXTERNALLY_SYNCHRONIZED") != std::string::npos ||
          ci.head.find("LIPS_PER_THREAD") != std::string::npos;
      if (class_marked) continue;
      static const std::regex data_member(
          R"(\b(?:[A-Za-z_][\w:<>,&*\s]*?)\s[&*]?([A-Za-z_]\w*)\s*(?:;|=|\{))");
      for (const MemberStmt& m : ci.members) {
        const std::string& t = m.text;
        if (t.find("LIPS_GUARDED_BY") != std::string::npos) continue;
        if (t.find("LIPS_PER_THREAD") != std::string::npos) continue;
        if (std::regex_search(
                t, std::regex(R"(\b(?:static|const|constexpr|using|typedef)"
                              R"(|friend|atomic|enum|class|struct|Mutex)\b)")))
          continue;
        const std::size_t paren = t.find('(');
        const std::size_t eq = t.find('=');
        const std::size_t brace = t.find('{');
        const std::size_t init = std::min(eq, brace);
        if (paren != std::string::npos &&
            (init == std::string::npos || paren < init))
          continue;  // member function
        if (t.find('&') != std::string::npos &&
            t.find("&&") == std::string::npos && paren == std::string::npos &&
            init == std::string::npos)
          continue;  // reference member (non-reseatable)
        std::smatch sm;
        if (!std::regex_search(t, sm, data_member)) continue;
        add(line_of(code, m.offset), "farm-shared-state",
            "member '" + sm[1].str() + "' of farm class '" + ci.name +
                "' has no declared thread role; mark the class "
                "LIPS_EXTERNALLY_SYNCHRONIZED / LIPS_PER_THREAD or annotate "
                "the member (DESIGN.md §13 determinism contract)");
      }
    }
  }

  void rule_blocking_call_in_handler() {
    if (!in_svc_handler_scope(path)) return;
    // One worker thread serves every queued command of a session; a raw
    // blocking primitive in the handler layer stalls the whole tenant (and
    // the BUSY backpressure behind it). Sleeps, synchronous file streams,
    // and direct fd/socket waits all belong in the transport (server.cpp)
    // or the ckpt/obs layers the handlers call through.
    static const std::regex re(
        R"((?:\bsleep_for\b|\bsleep_until\b|\busleep\s*\(|\bnanosleep\s*\()"
        R"(|\bsleep\s*\(|\b[io]?fstream\b(?!>)|\bfopen\s*\(|\bfreopen\s*\()"
        R"(|\bread\s*\(|\brecv\s*\(|\brecvfrom\s*\(|\baccept\s*\()"
        R"(|\bpoll\s*\(|\bselect\s*\(|\bconnect\s*\(|\bwaitpid\s*\()"
        R"(|\bgetchar\s*\(|\bscanf\s*\())");
    scan_regex(re, "blocking-call-in-handler",
               "blocking primitive in a svc command handler; handlers run "
               "on the session's only worker thread — push waits into the "
               "transport or a lower layer");
  }

  void run() {
    parse();
    rule_raw_cost_double();
    rule_raw_rng();
    rule_unordered_iteration();
    rule_float_type();
    rule_nondet_time();
    rule_raw_stdout_in_lib();
    rule_unordered_serialize();
    rule_unchecked_solve_status();
    rule_shared_mutable_static();
    rule_raw_mutex();
    rule_rng_by_ref_escape();
    rule_unguarded_member_mutation();
    rule_farm_shared_state();
    rule_blocking_call_in_handler();
  }
};

// --- Output -----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Machine-readable findings: a JSON array of {file, line, rule, message},
/// written to stdout (CI turns each element into a GitHub problem-matcher
/// annotation). Empty array when clean; exit code still signals findings.
void print_json(const std::vector<Finding>& findings) {
  std::cout << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::cout << (i == 0 ? "\n" : ",\n")
              << "  {\"file\": \"" << json_escape(f.file)
              << "\", \"line\": " << f.line << ", \"rule\": \""
              << json_escape(f.rule) << "\", \"message\": \""
              << json_escape(f.message) << "\"}";
  }
  std::cout << (findings.empty() ? "]\n" : "\n]\n");
}

/// Self-test: the fixture seeds one violation per rule, each tagged with
/// `// lint-expect(<rule>)`. Pass iff findings and markers agree exactly.
int self_test(FileLint& f) {
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

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  bool self = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self = true;
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--format=text") {
      json = false;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: lips_lint [--self-test] [--format=json|text] "
                   "<file>...\n";
      return 0;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::cerr << "lips_lint: no input files\n";
    return 2;
  }
  int exit_code = 0;
  std::size_t skipped = 0;
  std::vector<Finding> all;
  std::size_t linted = 0;
  for (const std::string& path : files) {
    if (!self && excluded_from_scan(path)) {
      ++skipped;
      continue;
    }
    FileLint f;
    f.path = path;
    if (!f.load()) {
      std::cerr << "lips_lint: cannot read " << path << "\n";
      exit_code = 2;
      continue;
    }
    ++linted;
    f.run();
    if (self) {
      if (self_test(f) != 0) exit_code = 1;
      continue;
    }
    if (!f.findings.empty()) exit_code = 1;
    if (json) {
      all.insert(all.end(), f.findings.begin(), f.findings.end());
    } else {
      for (const Finding& fd : f.findings)
        std::cerr << fd.file << ":" << fd.line << ": [" << fd.rule << "] "
                  << fd.message << "\n";
      all.insert(all.end(), f.findings.begin(), f.findings.end());
    }
  }
  if (!self) {
    if (json) {
      print_json(all);
    } else if (all.empty()) {
      std::cout << "lips-lint: " << linted << " files clean";
      if (skipped > 0)
        std::cout << " (" << skipped
                  << " skipped under build*/ or bench/results/)";
      std::cout << "\n";
    } else {
      std::cerr << "lips-lint: " << all.size() << " finding(s)\n";
    }
  }
  return exit_code;
}
