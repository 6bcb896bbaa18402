// mcmlint: the repo's determinism/concurrency contract checker.
//
// Modes:
//   mcmlint --root DIR [--config FILE]   lint the configured trees; prints
//                                        "file:line: [rule] message" per
//                                        violation and exits nonzero if any.
//     --sarif PATH                       additionally write SARIF 2.1.0.
//   mcmlint --expect FILE...             fixture mode: every rule (per-file
//   mcmlint --expect-dir DIR             and flow-aware) runs on every file
//                                        regardless of scoping, and
//                                        diagnostics are compared against
//                                        "expect: mcm-<rule>" comments.
//   mcmlint --list-rules                 print the rule names and exit.
//
// See docs/ARCHITECTURE.md ("Static analysis & determinism contract") for
// the rule catalog, the index/taint design, and the annotation policy.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "config.h"
#include "flow_rules.h"
#include "index.h"
#include "lexer.h"
#include "rules.h"
#include "runtime/thread_pool.h"
#include "sarif.h"

namespace mcmlint {
namespace {

namespace fs = std::filesystem;

constexpr const char* kRuleNames[] = {
    "mcm-nondeterminism", "mcm-unordered-iteration", "mcm-raw-thread",
    "mcm-mutable-static", "mcm-env-registry",        "mcm-banned",
    "mcm-nondet-reach",   "mcm-guard-check",         "mcm-handler-safety",
    "mcm-float-unordered",
};

// Defaults used when the config does not override them (and in --expect
// mode, which runs without a config file).
const std::vector<std::string> kDefaultBanned = {"strtok", "gets", "sprintf"};
const std::vector<std::string> kDefaultEnvFunctions = {
    "GetEnv", "GetEnvInt", "GetEnvDouble", "ScaledInt", "getenv"};
const std::vector<std::string> kDefaultEnvPrefixes = {"MCM"};
constexpr const char* kDefaultEnvSection = "Environment variables";

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

struct LintInputs {
  std::vector<std::string> banned = kDefaultBanned;
  std::vector<std::string> env_functions = kDefaultEnvFunctions;
  std::vector<std::string> env_prefixes = kDefaultEnvPrefixes;
  std::string env_section = kDefaultEnvSection;
};

LintInputs ResolveInputs(const Config& config, const fs::path& root) {
  LintInputs inputs;
  const RuleConfig& banned_rc = config.Rule("mcm-banned");
  const auto list_it = banned_rc.extra.find("list");
  if (list_it != banned_rc.extra.end()) {
    std::string content;
    if (ReadFile((root / list_it->second).string(), &content)) {
      inputs.banned.clear();
      std::istringstream stream(content);
      std::string line;
      while (std::getline(stream, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) line.resize(hash);
        for (const std::string& name : SplitList(line)) {
          inputs.banned.push_back(name);
        }
      }
    } else {
      std::fprintf(stderr, "mcmlint: cannot read banned list %s\n",
                   list_it->second.c_str());
    }
  }
  const RuleConfig& env_rc = config.Rule("mcm-env-registry");
  const auto fns_it = env_rc.extra.find("functions");
  if (fns_it != env_rc.extra.end()) {
    inputs.env_functions = SplitList(fns_it->second);
  }
  const auto prefix_it = env_rc.extra.find("prefixes");
  if (prefix_it != env_rc.extra.end()) {
    inputs.env_prefixes = SplitList(prefix_it->second);
  }
  const auto section_it = env_rc.extra.find("section");
  if (section_it != env_rc.extra.end()) {
    inputs.env_section = section_it->second;
  }
  return inputs;
}

// Runs the per-file rules (everything except the cross-file env diff and the
// flow rules), keeping only diagnostics that survive NOLINT suppression.
void LintFile(const SourceFile& file, const LintInputs& inputs,
              const Config* config, const std::string& rel_path,
              std::vector<Diagnostic>* out) {
  const auto in_scope = [&](const char* rule) {
    return config == nullptr || config->InScope(rule, rel_path);
  };
  std::vector<Diagnostic> raw;
  if (in_scope("mcm-nondeterminism")) CheckNondeterminism(file, &raw);
  if (in_scope("mcm-unordered-iteration")) CheckUnorderedIteration(file, &raw);
  if (in_scope("mcm-raw-thread")) CheckRawThread(file, &raw);
  if (in_scope("mcm-mutable-static")) CheckMutableStatic(file, &raw);
  if (in_scope("mcm-banned")) CheckBanned(file, inputs.banned, &raw);
  if (in_scope("mcm-float-unordered")) CheckFloatUnordered(file, &raw);
  for (Diagnostic& diag : raw) {
    if (file.Suppressed(diag.line, diag.rule)) continue;
    out->push_back(std::move(diag));
  }
}

// Parses one file into a FileIndex: per-file diagnostics, env reads, and the
// flow-rule inputs (functions, ops, call sites, guarded vars).
void BuildFileIndex(const std::string& rel, const std::string& content,
                    const LintInputs& inputs, const Config* config,
                    FileIndex* fi) {
  fi->path = rel;
  const SourceFile file = Tokenize(rel, content);
  LintFile(file, inputs, config, rel, &fi->file_diags);
  if (config == nullptr || config->InScope("mcm-env-registry", rel)) {
    std::vector<EnvRead> reads;
    CollectEnvReads(file, inputs.env_functions, inputs.env_prefixes, &reads);
    for (EnvRead& read : reads) {
      if (!file.Suppressed(read.line, "mcm-env-registry")) {
        fi->env_reads.push_back(std::move(read));
      }
    }
  }
  IndexFile(file, fi);
}

// Lints every file in `rel_paths`, parsing them in parallel on the runtime
// pool (results land in per-file slots; everything downstream iterates the
// sorted map, so the output is identical for any thread count).
bool LintTree(const fs::path& root, const Config& config,
              const LintInputs& inputs,
              const std::vector<std::string>& rel_paths,
              std::map<std::string, FileIndex>* files) {
  const std::size_t n = rel_paths.size();
  std::vector<FileIndex> slots(n);
  std::vector<char> failed(n, 0);
  mcm::ParallelFor(0, static_cast<std::int64_t>(n), [&](std::int64_t i) {
    const std::size_t k = static_cast<std::size_t>(i);
    std::string content;
    if (!ReadFile((root / rel_paths[k]).string(), &content)) {
      failed[k] = 1;
      return;
    }
    BuildFileIndex(rel_paths[k], content, inputs, &config, &slots[k]);
  });

  for (std::size_t i = 0; i < n; ++i) {
    if (failed[i]) {
      std::fprintf(stderr, "mcmlint: cannot read %s\n", rel_paths[i].c_str());
      return false;
    }
    (*files)[rel_paths[i]] = std::move(slots[i]);
  }
  return true;
}

// The cross-file passes: flow rules over the whole-tree index, then the
// env-registry diff.  Returns false on a hard error (unreadable README).
bool CrossFilePasses(const fs::path& root, const Config& config,
                     const LintInputs& inputs,
                     const std::map<std::string, FileIndex>& files,
                     std::vector<Diagnostic>* diags) {
  for (const auto& [rel, fi] : files) {
    diags->insert(diags->end(), fi.file_diags.begin(), fi.file_diags.end());
  }
  RunFlowRules(files, diags);

  if (config.Rule("mcm-env-registry").enabled) {
    const auto readme_it = config.Rule("mcm-env-registry").extra.find("readme");
    const std::string readme_rel =
        readme_it == config.Rule("mcm-env-registry").extra.end()
            ? "README.md"
            : readme_it->second;
    std::string readme;
    if (!ReadFile((root / readme_rel).string(), &readme)) {
      std::fprintf(stderr, "mcmlint: cannot read %s\n", readme_rel.c_str());
      return false;
    }
    const std::vector<EnvDoc> docs =
        ParseReadmeEnvTable(readme, inputs.env_section, inputs.env_prefixes);
    std::vector<EnvRead> env_reads;
    for (const auto& [rel, fi] : files) {
      env_reads.insert(env_reads.end(), fi.env_reads.begin(),
                       fi.env_reads.end());
    }
    DiffEnvRegistry(env_reads, docs, readme_rel, diags);
  }
  return true;
}

void PrintDiagnostics(std::vector<Diagnostic>& diags) {
  std::sort(diags.begin(), diags.end());
  diags.erase(std::unique(diags.begin(), diags.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return !(a < b) && !(b < a);
                          }),
              diags.end());
  for (const Diagnostic& diag : diags) {
    std::printf("%s:%d: [%s] %s\n", diag.path.c_str(), diag.line,
                diag.rule.c_str(), diag.message.c_str());
  }
}

int RunTree(const fs::path& root, const std::string& config_rel,
            const std::string& sarif_path) {
  Config config;
  if (!LoadConfig((root / config_rel).string(), &config)) return 2;
  const LintInputs inputs = ResolveInputs(config, root);

  std::vector<std::string> rel_paths;
  for (const std::string& dir : config.scan_dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (std::find(config.extensions.begin(), config.extensions.end(),
                    ext) == config.extensions.end()) {
        continue;
      }
      const std::string rel =
          entry.path().lexically_relative(root).generic_string();
      bool excluded = false;
      for (const std::string& prefix : config.excludes) {
        if (rel.compare(0, prefix.size(), prefix) == 0) excluded = true;
      }
      if (!excluded) rel_paths.push_back(rel);
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());

  std::map<std::string, FileIndex> files;
  if (!LintTree(root, config, inputs, rel_paths, &files)) return 2;
  std::vector<Diagnostic> diags;
  if (!CrossFilePasses(root, config, inputs, files, &diags)) return 2;

  PrintDiagnostics(diags);
  if (!sarif_path.empty() && !WriteSarif(sarif_path, diags)) return 2;
  std::fprintf(stderr, "mcmlint: %zu file(s) scanned, %zu violation(s)\n",
               files.size(), diags.size());
  return diags.empty() ? 0 : 1;
}

// --------------------------------------------------------------------------
// Fixture mode: compare actual diagnostics against "expect:" comments.

// Parses "expect: mcm-rule [mcm-rule...]" markers from raw lines.  Works in
// any comment style (//, /* */, <!-- -->) because it scans text, not tokens.
std::multiset<std::pair<int, std::string>> ParseExpectations(
    const std::string& content) {
  std::multiset<std::pair<int, std::string>> expected;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= content.size()) {
    const std::size_t eol = content.find('\n', pos);
    const std::string line =
        content.substr(pos, eol == std::string::npos ? eol : eol - pos);
    ++line_no;
    const std::size_t marker = line.find("expect:");
    if (marker != std::string::npos) {
      std::istringstream stream(line.substr(marker + 7));
      std::string word;
      while (stream >> word) {
        if (word.compare(0, 4, "mcm-") != 0) break;
        expected.emplace(line_no, word);
      }
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return expected;
}

int RunExpect(const std::vector<std::string>& paths) {
  const LintInputs inputs;  // defaults; fixtures target the built-in setup
  std::vector<Diagnostic> diags;
  std::vector<EnvRead> env_reads;
  std::vector<EnvDoc> env_docs;
  std::string readme_path;
  std::map<std::string, std::multiset<std::pair<int, std::string>>>
      expected_by_file;
  std::map<std::string, FileIndex> files;  // flow-rule input, cross-file

  for (const std::string& path : paths) {
    std::string content;
    if (!ReadFile(path, &content)) {
      std::fprintf(stderr, "mcmlint: cannot read %s\n", path.c_str());
      return 2;
    }
    expected_by_file[path] = ParseExpectations(content);
    if (path.size() > 3 && path.compare(path.size() - 3, 3, ".md") == 0) {
      readme_path = path;
      const std::vector<EnvDoc> docs = ParseReadmeEnvTable(
          content, kDefaultEnvSection, inputs.env_prefixes);
      env_docs.insert(env_docs.end(), docs.begin(), docs.end());
      continue;
    }
    FileIndex fi;
    BuildFileIndex(path, content, inputs, /*config=*/nullptr, &fi);
    diags.insert(diags.end(), fi.file_diags.begin(), fi.file_diags.end());
    env_reads.insert(env_reads.end(), fi.env_reads.begin(),
                     fi.env_reads.end());
    files[path] = std::move(fi);
  }
  RunFlowRules(files, &diags);
  if (!readme_path.empty() || !env_reads.empty()) {
    DiffEnvRegistry(env_reads, env_docs, readme_path, &diags);
  }

  // Compare actual vs expected per file.
  int mismatches = 0;
  std::map<std::string, std::multiset<std::pair<int, std::string>>> actual;
  for (const Diagnostic& diag : diags) {
    actual[diag.path].emplace(diag.line, diag.rule);
  }
  for (const auto& [path, expected_set] : expected_by_file) {
    const auto& actual_set = actual[path];
    for (const auto& [line, rule] : expected_set) {
      if (actual_set.count({line, rule}) == 0) {
        std::printf("%s:%d: expected [%s] diagnostic was not produced\n",
                    path.c_str(), line, rule.c_str());
        ++mismatches;
      }
    }
    for (const auto& [line, rule] : actual_set) {
      if (expected_set.count({line, rule}) == 0) {
        std::printf("%s:%d: unexpected [%s] diagnostic\n", path.c_str(), line,
                    rule.c_str());
        ++mismatches;
      }
    }
  }
  std::fprintf(stderr,
               "mcmlint --expect: %zu file(s), %zu diagnostic(s), "
               "%d mismatch(es)\n",
               paths.size(), diags.size(), mismatches);
  return mismatches == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: mcmlint --root DIR [--config FILE] [--sarif PATH]\n"
               "       mcmlint --expect FILE...\n"
               "       mcmlint --expect-dir DIR\n"
               "       mcmlint --list-rules\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string root = ".";
  std::string config_rel = "tools/mcmlint/mcmlint.conf";
  std::vector<std::string> expect_files;
  bool expect_mode = false;
  std::string sarif_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const char* rule : kRuleNames) std::printf("%s\n", rule);
      return 0;
    }
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--config" && i + 1 < argc) {
      config_rel = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--expect") {
      expect_mode = true;
      while (i + 1 < argc) expect_files.push_back(argv[++i]);
    } else if (arg == "--expect-dir" && i + 1 < argc) {
      expect_mode = true;
      const fs::path dir = argv[++i];
      if (!fs::exists(dir)) {
        std::fprintf(stderr, "mcmlint: no such directory %s\n",
                     dir.string().c_str());
        return 2;
      }
      for (const auto& entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".cc" || ext == ".h" || ext == ".md") {
          expect_files.push_back(entry.path().string());
        }
      }
    } else {
      return Usage();
    }
  }
  if (expect_mode) {
    if (expect_files.empty()) return Usage();
    std::sort(expect_files.begin(), expect_files.end());
    return RunExpect(expect_files);
  }
  return RunTree(fs::path(root), config_rel, sarif_path);
}

}  // namespace
}  // namespace mcmlint

int main(int argc, char** argv) { return mcmlint::Main(argc, argv); }
