// The traced run's layer timings, taken from outside the program: each
// module's public function is called in the order compileLoop calls it, and
// each call is timed and its work counted. The replay then checks itself
// against compileLoop on the same loop, so a later change can trust the
// per-layer split: every deterministic count must equal the loop's
// PipelineTrace counter, and a loop where the two paths part (a
// degradation-ladder retry, say) is reported as diverged, not hidden.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "Common.h"
#include "ir/Loop.h"

namespace rapt::perfbench {

struct LayerTotals {
  int loops = 0;
  int diverged = 0;
  std::vector<std::string> divergedLoops;  ///< "loop@machine: why"
  /// Loops that took compileLoop's path yet counted differently: a replay
  /// defect, which fails the run.
  std::vector<std::string> mismatches;

  // Wall time per layer, summed over loops (ns).
  std::int64_t analysisNs = 0, ddgNs = 0, idealNs = 0, rescheduleNs = 0;
  std::int64_t rcgNs = 0, greedyNs = 0, copyInsertNs = 0, emitNs = 0;
  std::int64_t regallocNs = 0, verifyNs = 0, certifyNs = 0, simulateNs = 0;

  // Work counts, summed over loops (deterministic).
  std::int64_t ddgEdges = 0, placements = 0, rcgEdges = 0, copies = 0;
  std::int64_t emittedOps = 0, verifiedOps = 0, certifiedValues = 0;
  std::int64_t spills = 0, simulatedCycles = 0;
  std::int64_t certifyAllocs = 0, regallocAllocs = 0;

  // compileLoop on the same loops: untraced, timed from outside, versus the
  // row's own trace.totalNs and versus the traced replay.
  std::int64_t compileOutsideNs = 0, compileTraceNs = 0, replayWallNs = 0;
};

/// Replays every (loop, machine) pair under `options` (GreedyRcg, no
/// refinement or lifetime compaction: the configurations the workloads run).
[[nodiscard]] LayerTotals replayLayers(
    const std::vector<std::pair<Loop, MachineDesc>>& items, const PipelineOptions& options);

/// The json.* and journal.* layers over a workload's result rows: encode and
/// decode each row the way journals and the wire do, and append each to a
/// fresh journal at `journalPath`.
struct CodecTotals {
  int rows = 0;
  std::int64_t encodeNs = 0, decodeNs = 0, bytes = 0;
  std::int64_t appendNs = 0, fsyncs = 0;
  int decodeFailures = 0;
};
[[nodiscard]] CodecTotals measureCodecs(const std::vector<LoopResult>& rows,
                                        const std::string& journalPath);

/// Adds the pipeline-layer metrics (per-loop means for times, totals for
/// counts) plus replay.loops, replay.diverged, replay.timer_skew_share and
/// trace.overhead_share.
void reportLayers(const LayerTotals& t, Report& report);
void reportCodecs(const CodecTotals& c, Report& report);

}  // namespace rapt::perfbench
