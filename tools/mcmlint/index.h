// mcmlint v2's cross-translation-unit index.
//
// IndexFile() extends the token scanner into a declaration/definition/call
// parser: it walks a file's token stream with a namespace/class scope stack,
// recognizes function *definitions* (name chain + balanced parameter list +
// body, including constructor initializer lists and trailing return types),
// and records, per function,
//
//   * the operations the flow rules care about (nondeterminism sources,
//     allocation, locking, blocking calls) with their per-line NOLINT state,
//   * every call site (with qualifier chain and member-call flag), and
//   * every referenced identifier plus every mutex the function acquires,
//     feeding mcm-guard-check.
//
// It also collects "// mcmlint: guarded-by(<mutex>)" variable declarations
// and "// MCM_CONTRACT(<name>)" entry-point annotations (the marker applies
// to the function whose signature starts on the marker line or within the
// next five lines, so it can lead a short doc comment).
//
// Like the lexer, this is deliberately not a compiler: overload sets are
// merged per name, call edges resolve by qualified-name suffix, and
// operator definitions are not indexed.  The flow rules in flow_rules.h
// document how they stay useful despite that.
//
// A FileIndex also carries the *outputs* of the per-file token rules
// (file_diags, env_reads), so the cross-file passes run on the index map
// alone.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "rules.h"

namespace mcmlint {

// One operation of interest observed inside a function body.
struct Op {
  enum Kind {
    kNondet = 0,    // direct nondeterminism source (mcm-nondet-reach)
    kAlloc = 1,     // heap allocation / container growth / throw
    kLock = 2,      // mutex acquisition
    kBlocking = 3,  // sleeps, waits, non-async-signal-safe stdio
  };
  int kind = kNondet;
  int line = 0;
  std::string detail;  // human-readable, e.g. "std::rand()" or "push_back"
  // NOLINTed rules on the op's line ("*" for a bare NOLINT); the op is
  // sanitized for rule R when suppress contains R or "*".
  std::set<std::string> suppress;
};

struct CallSite {
  std::string name;  // as written: "Foo" or "Server::Run"
  int line = 0;
  bool member = false;  // obj.f() / obj->f(): resolved by last component
  int args = 0;         // top-level argument count at the call site
  std::set<std::string> suppress;  // NOLINTed rules on the call line
};

struct FunctionInfo {
  std::string name;  // scope-qualified, e.g. "mcm::service::Server::Run"
  int line = 0;      // signature start line
  // Accepted call arity [min_args, max_args] (defaults widen the range,
  // variadics push max_args to 99).  Used to split merged overload sets:
  // see flow_rules.h for the fallback when no candidate is compatible.
  int min_args = 0;
  int max_args = 0;
  std::set<std::string> contracts;  // MCM_CONTRACT(...) names
  std::set<std::string> suppress;   // NOLINTed rules on the signature line
  std::vector<Op> ops;
  std::vector<CallSite> calls;
  std::set<std::string> locks;   // mutex names this function acquires
  std::map<std::string, int> refs;  // identifier -> first unsuppressed line
};

// A variable declaration annotated "// mcmlint: guarded-by(<mutex>)".
struct GuardedVar {
  std::string name;
  std::string mutex;
  int line = 0;
};

// Everything mcmlint knows about one file: flow-rule inputs plus the
// outputs of the per-file token rules.
struct FileIndex {
  std::string path;  // as reported in diagnostics (relative to the root)
  std::vector<FunctionInfo> functions;
  std::vector<GuardedVar> guarded;
  std::vector<Diagnostic> file_diags;  // per-file rules, post-suppression
  std::vector<EnvRead> env_reads;      // post-suppression
};

// Fills functions/guarded from the token stream (file_diags/env_reads are
// the caller's job -- rule scoping lives there).
void IndexFile(const SourceFile& file, FileIndex* out);

}  // namespace mcmlint
