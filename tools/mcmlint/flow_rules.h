// mcmlint v2's flow-aware rules.  They run on the cross-TU index from
// index.h (one FileIndex per scanned file, cached or freshly parsed):
//
//   mcm-nondet-reach     Every function carrying "// MCM_CONTRACT(
//                        deterministic)" must not reach a nondeterminism
//                        source (rand, random_device, raw clock reads,
//                        unordered-container iteration, pointer-keyed
//                        ordering, thread ids) through any chain of call
//                        edges.  A NOLINT(mcm-nondet-reach) on a call line
//                        sanitizes that edge; "// mcmlint: order-insensitive"
//                        sanitizes an unordered-iteration source.
//   mcm-guard-check      A variable annotated "// mcmlint: guarded-by(<mu>)"
//                        may only be touched by functions that acquire <mu>
//                        themselves, or whose every caller (transitively)
//                        does.  Call-graph aware so lock-then-delegate
//                        helpers ("DrainLocked()") do not need annotations.
//                        Annotations in headers bind their name tree-wide
//                        (class members are touched from other TUs); ones
//                        in a .cc bind only refs in that file, so an
//                        unrelated same-named local elsewhere stays clean.
//   mcm-handler-safety   Functions carrying "// MCM_CONTRACT(signal-safe)"
//                        (signal handlers, the SIGTERM drain trigger) must
//                        not reach allocation, locking, or blocking calls
//                        (sleeps, waits, stdio) through any call chain.
//
// Resolution model: overload sets are merged per name; qualified calls
// ("Server::Run", "telemetry::MonotonicSeconds") resolve to definitions
// whose scope-qualified name ends with the written chain; member and
// unqualified calls resolve by last component alone.  Two pruning passes
// keep the merge honest: edges into bench/ or tools/ are dropped unless the
// caller lives in the same tree (the build has no such dependency), and
// when any candidate definition accepts the call's argument count, the
// arity-incompatible ones are dropped (so a 3-argument "search->Run" never
// lands on a zero-parameter event loop).  Both passes only ever *narrow* an
// over-approximation -- if no candidate is arity-compatible, all are kept.
// The result still over-approximates the real call graph, which is the
// right bias for a contract checker; per-edge NOLINT is the escape hatch
// when a merged name drags in an unrelated callee.
//
// All three rules self-filter suppression from the index (signature-line
// NOLINT disables a contract or a guard finding for that function; call- and
// op-line NOLINTs sanitize edges and ops): the cross-file passes see only
// the index map, never a file's SourceFile.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "index.h"

namespace mcmlint {

// Runs mcm-nondet-reach, mcm-guard-check, and mcm-handler-safety over the
// whole-tree index.  `files` maps relative path -> FileIndex; iteration
// order (sorted paths) makes the output deterministic.
void RunFlowRules(const std::map<std::string, FileIndex>& files,
                  std::vector<Diagnostic>* diags);

}  // namespace mcmlint
