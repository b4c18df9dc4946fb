// The benchmark's three workloads (perfbench/README.md). Each fills the
// report with its end-to-end metrics (args.trace == false) or its per-layer
// metrics (args.trace == true), and runs its correctness gates either way.
#pragma once

#include "Common.h"

namespace rapt::perfbench {

/// The paper's experiment: the 211-loop corpus on the six clustered paper
/// machines, every oracle on, in-process, one thread, journaled.
void runPaperSuite(const RunArgs& args, Report& report);

/// rapt-served under subprocess isolation with a cache smaller than the
/// working set, driven closed-loop over two connections by a seeded mix of
/// repeats (hits) and fresh manifest loops (misses).
void runServedMixed(const RunArgs& args, Report& report);

/// rapt-shard over a seeded manifest with its default cheap pipeline at
/// concurrency 2.
void runShardCampaign(const RunArgs& args, Report& report);

}  // namespace rapt::perfbench
