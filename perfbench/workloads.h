// The three workloads.  Each builds its inputs from the seed, measures its
// end-to-end metrics untraced and, on a traced run, replays the same work
// with spans for the per-layer split.
#pragma once

#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

struct WorkloadOutput {
  // End-to-end (untraced).
  double setup_s = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  std::string tail_label;
  double throughput_per_s = 0.0;
  // Per-layer metrics by name (traced runs); names a workload does not
  // exercise are reported as 0.
  std::map<std::string, double> layers;
};

void RunPretrain(const Options& options, Result& result, WorkloadOutput& out);
void RunBertSearch(const Options& options, Result& result, WorkloadOutput& out);
void RunServe(const Options& options, Result& result, WorkloadOutput& out);

}  // namespace perfbench
