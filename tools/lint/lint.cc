#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace subrec::lint {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

SourceFile MakeSourceFile(const std::string& logical_path,
                          const std::string& content) {
  SourceFile f;
  f.path = logical_path;
  f.is_header = EndsWith(logical_path, ".h");

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::string raw, code, comments;
  auto emit = [&](char r, char c, char m) {
    raw += r;
    code += c;
    comments += m;
  };
  auto flush_line = [&] {
    f.lines.push_back(raw);
    f.code.push_back(code);
    f.comments.push_back(comments);
    raw.clear();
    code.clear();
    comments.clear();
  };

  const size_t n = content.size();
  size_t i = 0;
  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      flush_line();
      if (state == State::kLineComment) state = State::kCode;
      ++i;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
          emit('/', ' ', ' ');
          emit('/', ' ', ' ');
          i += 2;
          state = State::kLineComment;
        } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
          emit('/', ' ', ' ');
          emit('*', ' ', ' ');
          i += 2;
          state = State::kBlockComment;
        } else if (c == '"') {
          emit('"', '"', ' ');
          ++i;
          state = State::kString;
        } else if (c == '\'') {
          emit('\'', '\'', ' ');
          ++i;
          state = State::kChar;
        } else {
          emit(c, c, ' ');
          ++i;
        }
        break;
      case State::kLineComment:
        emit(c, ' ', c);
        ++i;
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && content[i + 1] == '/') {
          emit('*', ' ', ' ');
          emit('/', ' ', ' ');
          i += 2;
          state = State::kCode;
        } else {
          emit(c, ' ', c);
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          emit('\\', ' ', ' ');
          emit(content[i + 1], ' ', ' ');
          i += 2;
        } else if (c == '"') {
          emit('"', '"', ' ');
          ++i;
          state = State::kCode;
        } else {
          emit(c, ' ', ' ');
          ++i;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          emit('\\', ' ', ' ');
          emit(content[i + 1], ' ', ' ');
          i += 2;
        } else if (c == '\'') {
          emit('\'', '\'', ' ');
          ++i;
          state = State::kCode;
        } else {
          emit(c, ' ', ' ');
          ++i;
        }
        break;
    }
  }
  if (!raw.empty()) flush_line();
  return f;
}

SourceFile LoadFileAs(const std::string& disk_path,
                      const std::string& logical_path) {
  std::ifstream in(disk_path, std::ios::binary);
  if (!in) {
    std::cerr << "subrec_lint: cannot read " << disk_path << std::endl;
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return MakeSourceFile(logical_path, buf.str());
}

namespace {

/// Declarative per-line regex rule over the code or comments view.
class RegexRule final : public Rule {
 public:
  explicit RegexRule(RegexRuleSpec spec)
      : spec_(std::move(spec)), re_(spec_.pattern) {}

  const std::string& name() const override { return spec_.name; }

  void Check(const SourceFile& file,
             std::vector<Violation>* out) const override {
    if (spec_.headers_only && !file.is_header) return;
    if (!spec_.path_prefix.empty() &&
        !StartsWith(file.path, spec_.path_prefix)) {
      return;
    }
    for (const std::string& exempt : spec_.exempt_prefixes) {
      if (StartsWith(file.path, exempt)) return;
    }
    const std::vector<std::string>& view =
        spec_.comments_view ? file.comments : file.code;
    for (size_t i = 0; i < view.size(); ++i) {
      if (std::regex_search(view[i], re_)) {
        out->push_back({file.path, i + 1, spec_.name, spec_.message});
      }
    }
  }

 private:
  RegexRuleSpec spec_;
  std::regex re_;
};

/// Serving code stores per-paper vector sets as contiguous la::Matrix
/// slabs (one allocation, GEMM-ready rows); a vector-of-vectors of doubles
/// reintroduces one heap allocation per row and pointer-chasing on the
/// scoring hot path. Genuinely ragged data (per-request score buffers,
/// transitional decode input) opts out with a
/// SUBREC_NESTED_VECTOR_OK(reason) comment on the same line or the line
/// above — the reason is mandatory, a bare marker does not count.
class NestedVectorMatrixRule final : public Rule {
 public:
  const std::string& name() const override { return name_; }

  void Check(const SourceFile& file,
             std::vector<Violation>* out) const override {
    if (!StartsWith(file.path, "src/serve/")) return;
    static const std::regex nested_re(
        "std::vector\\s*<\\s*std::vector\\s*<\\s*double\\b");
    static const std::regex optout_re(
        "SUBREC_NESTED_VECTOR_OK\\s*\\([^)]+\\)");
    for (size_t i = 0; i < file.code.size(); ++i) {
      if (!std::regex_search(file.code[i], nested_re)) continue;
      const bool allowed =
          std::regex_search(file.comments[i], optout_re) ||
          (i > 0 && std::regex_search(file.comments[i - 1], optout_re));
      if (allowed) continue;
      out->push_back(
          {file.path, i + 1, name_,
           "serving code keeps per-row vector sets as contiguous la::Matrix "
           "slabs, not vector-of-vectors of double; genuinely ragged data "
           "may opt out with a SUBREC_NESTED_VECTOR_OK(reason) comment"});
    }
  }

 private:
  std::string name_ = "no-nested-vector-matrix";
};

/// Header guards must spell the repo path: src/la/matrix.h uses
/// SUBREC_LA_MATRIX_H_, bench/bench_common.h uses SUBREC_BENCH_BENCH_COMMON_H_
/// (the src/ prefix is dropped, everything else is kept).
class IncludeGuardRule final : public Rule {
 public:
  const std::string& name() const override { return name_; }

  static std::string ExpectedGuard(const std::string& path) {
    std::string p = path;
    if (StartsWith(p, "src/")) p = p.substr(4);
    std::string guard = "SUBREC_";
    for (char c : p) {
      if (c == '/' || c == '.' || c == '-') {
        guard += '_';
      } else {
        guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    }
    guard += '_';
    return guard;
  }

  void Check(const SourceFile& file,
             std::vector<Violation>* out) const override {
    if (!file.is_header) return;
    const std::string expected = ExpectedGuard(file.path);
    static const std::regex ifndef_re("^\\s*#ifndef\\s+(\\S+)");
    static const std::regex define_re("^\\s*#define\\s+(\\S+)");
    std::smatch m;
    size_t ifndef_line = 0;
    std::string got;
    for (size_t i = 0; i < file.code.size(); ++i) {
      if (std::regex_search(file.code[i], m, ifndef_re)) {
        ifndef_line = i + 1;
        got = m[1];
        break;
      }
    }
    if (ifndef_line == 0) {
      out->push_back({file.path, 1, name_, "missing include guard #ifndef"});
      return;
    }
    if (got != expected) {
      out->push_back({file.path, ifndef_line, name_,
                      "include guard '" + got + "' should be '" + expected +
                          "' (derived from the file path)"});
      return;
    }
    for (size_t i = ifndef_line; i < file.code.size(); ++i) {
      if (std::regex_search(file.code[i], m, define_re)) {
        if (m[1] != expected) {
          out->push_back({file.path, i + 1, name_,
                          "guard #define '" + std::string(m[1]) +
                              "' does not match #ifndef '" + expected + "'"});
        }
        return;
      }
    }
    out->push_back(
        {file.path, ifndef_line, name_, "include guard missing #define"});
  }

 private:
  std::string name_ = "include-guard";
};

/// Comment-view TODO lines must carry an owner: TODO(name): message.
class TodoFormatRule final : public Rule {
 public:
  const std::string& name() const override { return name_; }

  void Check(const SourceFile& file,
             std::vector<Violation>* out) const override {
    static const std::regex todo_re("\\bTODO\\b");
    static const std::regex ok_re("TODO\\([A-Za-z0-9_.-]+\\):");
    for (size_t i = 0; i < file.comments.size(); ++i) {
      if (std::regex_search(file.comments[i], todo_re) &&
          !std::regex_search(file.comments[i], ok_re)) {
        out->push_back({file.path, i + 1, name_,
                        "format as TODO(name): description"});
      }
    }
  }

 private:
  std::string name_ = "todo-format";
};

/// Headers must directly #include the standard header providing each symbol
/// they use, for a checked list of common symbols. Extending the list is one
/// table row.
class IncludeHygieneRule final : public Rule {
 public:
  const std::string& name() const override { return name_; }

  void Check(const SourceFile& file,
             std::vector<Violation>* out) const override {
    if (!file.is_header) return;
    struct Entry {
      const char* pattern;
      std::vector<const char*> providers;
    };
    static const std::vector<Entry> kEntries = {
        {"std::vector<", {"<vector>"}},
        {"std::string\\b", {"<string>"}},
        {"std::(o|i)?stringstream\\b", {"<sstream>"}},
        {"std::ostream\\b", {"<ostream>", "<iostream>", "<sstream>"}},
        {"std::unordered_map<", {"<unordered_map>"}},
        {"std::unordered_set<", {"<unordered_set>"}},
        {"std::function<", {"<functional>"}},
        {"std::(unique_ptr|shared_ptr|make_unique|make_shared)<",
         {"<memory>"}},
        {"std::array<", {"<array>"}},
        {"std::(pair<|move\\(|forward<)", {"<utility>"}},
        {"std::optional<", {"<optional>"}},
        {"\\bu?int(8|16|32|64)_t\\b", {"<cstdint>"}},
        {"\\bsize_t\\b", {"<cstddef>"}},
    };
    for (const Entry& e : kEntries) {
      const std::regex sym_re(e.pattern);
      size_t first_use = 0;
      for (size_t i = 0; i < file.code.size(); ++i) {
        if (std::regex_search(file.code[i], sym_re)) {
          first_use = i + 1;
          break;
        }
      }
      if (first_use == 0) continue;
      bool included = false;
      for (const char* provider : e.providers) {
        const std::string inc = std::string("#include ") + provider;
        for (const std::string& line : file.code) {
          if (line.find(inc) != std::string::npos) {
            included = true;
            break;
          }
        }
        if (included) break;
      }
      if (!included) {
        out->push_back({file.path, first_use, name_,
                        std::string("uses a symbol matching '") + e.pattern +
                            "' but does not include " + e.providers[0]});
      }
    }
  }

 private:
  std::string name_ = "include-hygiene";
};

/// Fields of a class that owns a common::Mutex by value must declare their
/// relationship to the lock: SUBREC_GUARDED_BY / SUBREC_PT_GUARDED_BY for
/// protected state, SUBREC_UNGUARDED(reason) for deliberate opt-outs.
/// Exempt: the mutex itself, CondVar members, std::atomic members, and
/// static/constexpr/using/typedef/friend declarations.
///
/// This is a light structural scan (brace + statement tracking over the
/// code view), not a parser: member statements it cannot classify are
/// skipped rather than flagged, so the rule under-approximates and never
/// blocks on syntax it does not model. alignas(...) specifiers are
/// stripped before classification, so cache-line-padded fields of
/// lock-striped classes are checked like any other member.
class GuardedByRule final : public Rule {
 public:
  const std::string& name() const override { return name_; }

  void Check(const SourceFile& file,
             std::vector<Violation>* out) const override {
    if (!StartsWith(file.path, "src/")) return;
    // The wrapper definitions themselves (Mutex owns the raw std::mutex).
    if (file.path == "src/common/mutex.h") return;

    struct Frame {
      bool is_class = false;
      std::string header;  // declaration text that preceded this '{'
      std::vector<Member> members;
    };

    static const std::regex class_re("(^|[^\\w])(class|struct)\\s+[A-Za-z_]");
    static const std::regex enum_re("\\benum\\b");

    std::vector<Frame> frames;
    std::string pending;
    size_t pending_line = 0;
    bool swallow_semi = false;  // the ';' that closes a class definition

    auto record_member = [&] {
      const std::string text = Trim(pending);
      pending.clear();
      if (text.empty()) return;
      if (!frames.empty() && frames.back().is_class) {
        frames.back().members.push_back({text, pending_line});
      }
    };

    for (size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      if (IsPreprocessor(line)) continue;
      for (const char c : line) {
        if (c == '{') {
          Frame f;
          f.header = Trim(pending);
          f.is_class = std::regex_search(f.header, class_re) &&
                       !std::regex_search(f.header, enum_re);
          pending.clear();
          frames.push_back(std::move(f));
        } else if (c == '}') {
          if (frames.empty()) continue;
          Frame f = std::move(frames.back());
          frames.pop_back();
          if (f.is_class) {
            ReportClass(file, f.members, out);
            swallow_semi = true;  // the '};' terminator is not a member
          } else if (!f.header.empty() &&
                     (f.header.back() == '=' || f.header.back() == '(' ||
                      f.header.back() == ',')) {
            // Braced initializer in expression position — a default
            // argument (`Ctor(Options o = {})`) or list element — never
            // ends the declaration, even when the header looks
            // function-shaped; keep accumulating until its ';'.
            pending = f.header;
          } else if (!LooksLikeFunction(f.header)) {
            // Braced initializer (e.g. `std::atomic<bool> done{false}`):
            // the declaration continues until its ';'.
            pending = f.header;
          }
        } else if (c == ';') {
          if (swallow_semi) {
            swallow_semi = false;
            pending.clear();
          } else {
            record_member();
          }
        } else {
          if (Trim(pending).empty() && !std::isspace(static_cast<unsigned char>(c))) {
            pending_line = i + 1;
          }
          pending += c;
        }
      }
      pending += ' ';  // line break acts as whitespace in the statement
    }
  }

 private:
  struct Member {
    std::string text;  // joined statement text, ';' excluded
    size_t line = 0;   // 1-based first line of the statement
  };

  static std::string Trim(const std::string& s) {
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
  }

  static bool IsPreprocessor(const std::string& line) {
    const std::string t = Trim(line);
    return !t.empty() && t[0] == '#';
  }

  /// Statement text with annotation macros removed, alignas specifiers
  /// dropped, default initializers cut at '=', access-specifier labels
  /// dropped, and template argument lists stripped — what remains
  /// classifies as function vs data member by the presence of '('.
  static std::string Normalize(const std::string& text) {
    static const std::regex ann_re(
        "SUBREC_(PT_)?GUARDED_BY\\s*\\([^)]*\\)|"
        "SUBREC_UNGUARDED\\s*\\([^)]*\\)");
    // Cache-line padding is idiomatic on lock-striped members
    // (`alignas(64) double rate_`); without this strip, the '(' would make
    // such fields look function-shaped and silently skip the rule.
    static const std::regex alignas_re("\\balignas\\s*\\([^()]*\\)");
    static const std::regex access_re("\\b(public|private|protected)\\s*:");
    static const std::regex operator_re("\\boperator[^\\s(]*");
    static const std::regex angle_re("<[^<>]*>");
    std::string s = std::regex_replace(text, ann_re, "");
    s = std::regex_replace(s, alignas_re, "");
    s = std::regex_replace(s, access_re, "");
    // `operator=(...)` must not be mistaken for a default initializer.
    s = std::regex_replace(s, operator_re, "op");
    const size_t eq = s.find('=');
    if (eq != std::string::npos) s = s.substr(0, eq);
    std::string prev;
    do {
      prev = s;
      s = std::regex_replace(s, angle_re, "");
    } while (s != prev);
    return Trim(s);
  }

  static bool LooksLikeFunction(const std::string& text) {
    return Normalize(text).find('(') != std::string::npos;
  }

  static bool OwnsMutex(const std::string& normalized) {
    static const std::regex owner_re(
        "(^|[^\\w:<,&*])((subrec::)?common::)?Mutex\\s+[A-Za-z_]\\w*\\s*$");
    return std::regex_search(normalized, owner_re);
  }

  void ReportClass(const SourceFile& file, const std::vector<Member>& members,
                   std::vector<Violation>* out) const {
    static const std::regex condvar_re("\\b(common::)?CondVar\\b");
    static const std::regex keyword_re(
        "^(static|constexpr|using|typedef|friend|enum)\\b");
    static const std::regex name_re("([A-Za-z_]\\w*)\\s*$");

    bool owns = false;
    for (const Member& m : members) {
      if (OwnsMutex(Normalize(m.text))) {
        owns = true;
        break;
      }
    }
    if (!owns) return;

    for (const Member& m : members) {
      const std::string n = Normalize(m.text);
      if (n.empty() || OwnsMutex(n)) continue;
      if (std::regex_search(n, condvar_re)) continue;
      if (m.text.find("std::atomic") != std::string::npos) continue;
      if (std::regex_search(n, keyword_re)) continue;
      if (n.find('(') != std::string::npos) continue;  // function-shaped
      const bool annotated =
          m.text.find("SUBREC_GUARDED_BY(") != std::string::npos ||
          m.text.find("SUBREC_PT_GUARDED_BY(") != std::string::npos ||
          m.text.find("SUBREC_UNGUARDED(") != std::string::npos;
      if (annotated) continue;
      std::smatch nm;
      const std::string field =
          std::regex_search(n, nm, name_re) ? nm[1].str() : n;
      out->push_back(
          {file.path, m.line, name_,
           "field '" + field +
               "' lives in a class that owns a common::Mutex; declare its "
               "locking relationship with SUBREC_GUARDED_BY(mu), "
               "SUBREC_PT_GUARDED_BY(mu), or SUBREC_UNGUARDED(\"reason\")"});
    }
  }

  std::string name_ = "guarded-by-required";
};

}  // namespace

std::vector<std::unique_ptr<Rule>> BuildDefaultRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<IncludeGuardRule>());
  rules.push_back(std::make_unique<RegexRule>(RegexRuleSpec{
      "no-std-rand",
      "std::rand\\b|\\bsrand\\s*\\(",
      "use subrec::Rng (common/rng.h); global C RNG state breaks "
      "reproducibility",
      /*headers_only=*/false,
      /*comments_view=*/false,
      /*path_prefix=*/"",
      /*exempt_prefixes=*/{}}));
  rules.push_back(std::make_unique<RegexRule>(RegexRuleSpec{
      "no-using-namespace-header",
      "\\busing\\s+namespace\\b",
      "headers must not inject namespaces into every includer",
      /*headers_only=*/true,
      /*comments_view=*/false,
      /*path_prefix=*/"",
      /*exempt_prefixes=*/{}}));
  rules.push_back(std::make_unique<RegexRule>(RegexRuleSpec{
      "no-raw-stdio",
      "std::cout\\b|std::cerr\\b|\\b(std::)?(v?f?printf|puts|fputs|putchar)\\s*\\(",
      "library code emits through SUBREC_LOG / obs::JsonWriter, not raw "
      "streams or printf",
      /*headers_only=*/false,
      /*comments_view=*/false,
      /*path_prefix=*/"src/",
      /*exempt_prefixes=*/{"src/common/logging", "src/common/check"}}));
  rules.push_back(std::make_unique<RegexRule>(RegexRuleSpec{
      "no-float",
      "\\bfloat\\b",
      "numeric code is double-only; float silently halves precision",
      /*headers_only=*/false,
      /*comments_view=*/false,
      /*path_prefix=*/"src/",
      /*exempt_prefixes=*/{}}));
  rules.push_back(std::make_unique<RegexRule>(RegexRuleSpec{
      "no-thread-sleep",
      "std::this_thread::sleep_(for|until)\\b",
      "library code must not sleep: serving hot paths block on condvars or "
      "futures; benches and tests pace themselves outside src/",
      /*headers_only=*/false,
      /*comments_view=*/false,
      /*path_prefix=*/"src/",
      /*exempt_prefixes=*/{}}));
  rules.push_back(std::make_unique<RegexRule>(RegexRuleSpec{
      "no-raw-concurrency-primitive",
      "std::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
      "unique_lock|scoped_lock|shared_lock|condition_variable)\\b",
      "library code locks through common::Mutex / common::MutexLock / "
      "common::CondVar (common/mutex.h) so Clang thread-safety analysis "
      "sees every acquire and release",
      /*headers_only=*/false,
      /*comments_view=*/false,
      /*path_prefix=*/"src/",
      /*exempt_prefixes=*/{"src/common/mutex.h"}}));
  rules.push_back(std::make_unique<RegexRule>(RegexRuleSpec{
      "one-cpu-probe",
      "\\b__builtin_cpu_(supports|is)\\b",
      "the CPU is probed once, in src/la/cpu_dispatch.cc; take the kernel "
      "table for the host from la/cpu_dispatch.h instead",
      /*headers_only=*/false,
      /*comments_view=*/false,
      /*path_prefix=*/"src/",
      /*exempt_prefixes=*/{"src/la/cpu_dispatch.cc"}}));
  rules.push_back(std::make_unique<TodoFormatRule>());
  rules.push_back(std::make_unique<IncludeHygieneRule>());
  rules.push_back(std::make_unique<GuardedByRule>());
  rules.push_back(std::make_unique<NestedVectorMatrixRule>());
  return rules;
}

std::vector<std::string> CollectSourceFiles(
    const std::string& repo_root, const std::vector<std::string>& dirs) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const std::string& dir : dirs) {
    const fs::path base = fs::path(repo_root) / dir;
    if (!fs::exists(base)) continue;
    for (fs::recursive_directory_iterator it(base), end; it != end; ++it) {
      const fs::path& p = it->path();
      const std::string fname = p.filename().string();
      if (it->is_directory()) {
        if (fname == "testdata" || StartsWith(fname, "build") ||
            StartsWith(fname, ".")) {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = p.extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      out.push_back(fs::relative(p, repo_root).generic_string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Violation> RunRules(const std::vector<std::unique_ptr<Rule>>& rules,
                                const std::vector<SourceFile>& files) {
  std::vector<Violation> out;
  for (const SourceFile& f : files) {
    for (const auto& rule : rules) rule->Check(f, &out);
  }
  return out;
}

std::vector<Violation> LintTree(const std::string& repo_root,
                                const std::vector<std::string>& dirs) {
  std::vector<SourceFile> files;
  for (const std::string& rel : CollectSourceFiles(repo_root, dirs)) {
    files.push_back(LoadFileAs(repo_root + "/" + rel, rel));
  }
  return RunRules(BuildDefaultRules(), files);
}

std::string FormatViolation(const Violation& v) {
  std::ostringstream os;
  os << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message;
  return os.str();
}

}  // namespace subrec::lint
