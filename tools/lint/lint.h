#ifndef SUBREC_TOOLS_LINT_LINT_H_
#define SUBREC_TOOLS_LINT_LINT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace subrec::lint {

/// One rule violation at a location. `line` is 1-based; 0 means file-level.
struct Violation {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;
};

/// A source file split into three per-line views so rules can target exactly
/// the text class they care about:
///   lines    — raw text;
///   code     — comments and string/char literals blanked with spaces
///              (columns preserved), the view for banned-token rules;
///   comments — only comment text kept, everything else blanked, the view
///              for comment-annotation rules.
struct SourceFile {
  std::string path;  // logical repo-relative path, '/'-separated
  bool is_header = false;
  std::vector<std::string> lines;
  std::vector<std::string> code;
  std::vector<std::string> comments;
};

/// Builds the three views from raw file content. `logical_path` controls
/// which path-scoped rules apply (e.g. src/-only rules), independent of
/// where the bytes came from — tests lint fixture files under fake paths.
SourceFile MakeSourceFile(const std::string& logical_path,
                          const std::string& content);

/// Reads `disk_path` and parses it as `logical_path`. Aborts if unreadable.
SourceFile LoadFileAs(const std::string& disk_path,
                      const std::string& logical_path);

/// A lint rule. Rules are stateless; one instance checks many files.
/// Adding a rule = subclass (or a RegexRuleSpec entry) + registration in
/// BuildDefaultRules + a fixture in testdata/.
class Rule {
 public:
  virtual ~Rule() = default;
  virtual const std::string& name() const = 0;
  virtual void Check(const SourceFile& file,
                     std::vector<Violation>* out) const = 0;
};

/// Declarative single-regex rule applied to one line view.
struct RegexRuleSpec {
  std::string name;
  std::string pattern;  // ECMAScript, applied per line of the chosen view
  std::string message;
  bool headers_only = false;
  bool comments_view = false;  // match the comments view instead of code
  std::string path_prefix;     // only files under this prefix; "" = all
  std::vector<std::string> exempt_prefixes;
};

/// The repo rule set:
///   include-guard     guards must spell the file path (SUBREC_LA_MATRIX_H_)
///   no-std-rand       std::rand/srand banned (use common/rng)
///   no-using-namespace-header
///   no-raw-stdio      std::cout/std::cerr/printf in src/ outside logging/check
///   no-float          float in numeric code (src/), doubles only
///   no-thread-sleep   std::this_thread::sleep_for/until in src/ (serving
///                     code blocks on condvars/futures, never naps)
///   no-raw-concurrency-primitive
///                     std::mutex/lock_guard/unique_lock/condition_variable
///                     in src/ outside common/mutex.h (use the annotated
///                     common::Mutex wrappers)
///   one-cpu-probe     __builtin_cpu_supports/__builtin_cpu_is in src/
///                     outside la/cpu_dispatch.cc (one probe picks every
///                     kernel family's ISA)
///   todo-format       TODO(name): with owner
///   include-hygiene   headers directly include what they use (checked list)
///   guarded-by-required
///                     fields of a class owning a common::Mutex carry
///                     SUBREC_GUARDED_BY / SUBREC_PT_GUARDED_BY /
///                     SUBREC_UNGUARDED(reason)
///   no-nested-vector-matrix
///                     vector<vector<double>> in src/serve — per-row
///                     matrices live in contiguous la::Matrix slabs; ragged
///                     data opts out with a SUBREC_NESTED_VECTOR_OK(reason)
///                     comment
std::vector<std::unique_ptr<Rule>> BuildDefaultRules();

/// Recursively collects .h/.cc/.cpp files under `dirs` (repo-relative),
/// returning sorted repo-relative paths. Skips build*/ and testdata/.
std::vector<std::string> CollectSourceFiles(const std::string& repo_root,
                                            const std::vector<std::string>& dirs);

/// Runs every rule over every file.
std::vector<Violation> RunRules(const std::vector<std::unique_ptr<Rule>>& rules,
                                const std::vector<SourceFile>& files);

/// Convenience driver used by the CLI: collect, load, lint.
std::vector<Violation> LintTree(const std::string& repo_root,
                                const std::vector<std::string>& dirs);

/// "path:line: [rule] message" rendering for CLI output and test failures.
std::string FormatViolation(const Violation& v);

}  // namespace subrec::lint

#endif  // SUBREC_TOOLS_LINT_LINT_H_
