#include "LayerReplay.h"

#include <algorithm>
#include <cstdio>

#include "CountingNew.h"
#include "analysis/Linter.h"
#include "certify/Certifier.h"
#include "certify/SsaRename.h"
#include "partition/CopyInserter.h"
#include "partition/GreedyPartitioner.h"
#include "partition/Rcg.h"
#include "pipeline/WorkerProtocol.h"
#include "regalloc/BankAssigner.h"
#include "regalloc/PhysicalRewrite.h"
#include "sched/ModuloScheduler.h"
#include "sched/PipelinedCode.h"
#include "support/Journal.h"
#include "support/StageTimer.h"
#include "verify/PartitionVerifier.h"
#include "verify/ScheduleVerifier.h"
#include "vliwsim/Equivalence.h"
#include "vliwsim/VliwSimulator.h"

namespace rapt::perfbench {
namespace {

/// Allocations made inside one call into a layer, added to `count`.
class AllocSpan {
 public:
  explicit AllocSpan(std::int64_t& count) : count_(count), start_(allocCount()) {}
  ~AllocSpan() { count_ += allocCount() - start_; }
  AllocSpan(const AllocSpan&) = delete;
  AllocSpan& operator=(const AllocSpan&) = delete;

 private:
  std::int64_t& count_;
  std::int64_t start_;
};

/// What one loop's replay counted, for the comparison with its PipelineTrace.
struct LoopCounts {
  bool completed = false;  ///< followed compileLoop's happy path to the end
  std::string stoppedAt;   ///< why not
  std::int64_t placements = 0, verifiedOps = 0, certifiedValues = 0;
  std::int64_t virtualCycles = 0;  ///< the final attempt's virtual-stream cycles
  int bodyCopies = 0;
};

LoopCounts replayOne(const Loop& loop, const MachineDesc& machine,
                     const PipelineOptions& options, LayerTotals& t) {
  LoopCounts c;
  auto budgetLeft = [&]() -> std::int64_t {
    if (options.workBudget <= 0) return 0;
    return std::max<std::int64_t>(1, options.workBudget - c.placements);
  };

  if (options.staticAnalysis) {
    ScopedStageTimer s(t.analysisNs);
    const AnalysisReport rep = analyzeLoop(loop);
    if (rep.errorCount() > 0) {
      c.stoppedAt = "static gate";
      return c;
    }
  }

  const MachineDesc ideal = idealCounterpart(machine);
  const std::vector<OpConstraint> freeConstraints(static_cast<std::size_t>(loop.size()));
  const Ddg ddg = [&] {
    ScopedStageTimer s(t.ddgNs);
    return Ddg::build(loop, machine.lat);
  }();
  t.ddgEdges += static_cast<std::int64_t>(ddg.edges().size());

  ModuloSchedulerOptions idealOpts = options.sched;
  idealOpts.maxPlacements = budgetLeft();
  const ModuloSchedulerResult idealRes = [&] {
    ScopedStageTimer s(t.idealNs);
    return moduloSchedule(ddg, ideal, freeConstraints, idealOpts);
  }();
  c.placements += idealRes.placements;
  if (!idealRes.success) {
    c.stoppedAt = "ideal schedule";
    return c;
  }
  if (options.verify) {
    ScopedStageTimer s(t.verifyNs);
    if (!verifySchedule(ddg, ideal, freeConstraints, idealRes.schedule).ok()) {
      c.stoppedAt = "ideal verify";
      return c;
    }
  }

  const Rcg rcg = [&] {
    ScopedStageTimer s(t.rcgNs);
    return Rcg::build(loop, ddg, idealRes.schedule, options.weights);
  }();
  t.rcgEdges += static_cast<std::int64_t>(rcg.numEdges());
  const Partition partition = [&] {
    ScopedStageTimer s(t.greedyNs);
    return greedyPartition(rcg, machine.numClusters, options.weights);
  }();
  for (VirtReg r : loop.allRegs()) {
    if (!partition.isAssigned(r)) {
      c.stoppedAt = "partition coverage";
      return c;
    }
  }
  const ClusteredLoop clustered = [&] {
    ScopedStageTimer s(t.copyInsertNs);
    return insertCopies(loop, partition, machine);
  }();
  c.bodyCopies = clustered.bodyCopies;
  t.copies += clustered.bodyCopies + clustered.preheaderCopies;

  const Ddg cddg = [&] {
    ScopedStageTimer s(t.ddgNs);
    return Ddg::build(clustered.loop, machine.lat);
  }();
  t.ddgEdges += static_cast<std::int64_t>(cddg.edges().size());

  ModuloSchedulerOptions schedOpts = options.sched;
  for (int attempt = 0;; ++attempt) {
    schedOpts.maxPlacements = budgetLeft();
    const ModuloSchedulerResult res = [&] {
      ScopedStageTimer s(t.rescheduleNs);
      return moduloSchedule(cddg, machine, clustered.constraints, schedOpts);
    }();
    c.placements += res.placements;
    if (!res.success) {
      c.stoppedAt = "clustered schedule";
      return c;
    }
    const ModuloSchedule& sched = res.schedule;

    // Emission, with the trip widened exactly as compileLoop widens it.
    PipelinedCode code;
    {
      ScopedStageTimer s(t.emitNs);
      std::int64_t trip = std::max<std::int64_t>(options.simTrip, 4);
      code = emitPipelinedCode(clustered.loop, cddg, sched, trip, machine.lat);
      trip = std::max<std::int64_t>(trip, sched.stageCount() - 1 + 2LL * code.maxUnroll);
      if (trip != code.trip)
        code = emitPipelinedCode(clustered.loop, cddg, sched, trip, machine.lat);
    }
    std::int64_t ops = 0;
    for (const VliwInstr& in : code.instrs) ops += static_cast<std::int64_t>(in.ops.size());
    t.emittedOps += ops;

    if (options.verify) {
      ScopedStageTimer s(t.verifyNs);
      VerifyReport rep = verifySchedule(cddg, machine, clustered.constraints, sched);
      rep.merge(verifyStream(code, cddg, machine, clustered.constraints));
      rep.merge(verifyPartition(code, clustered.partition, machine));
      c.verifiedOps += ops;
      if (!rep.ok()) {
        c.stoppedAt = "verify";
        return c;
      }
    }
    if (options.certify) {
      ScopedStageTimer s(t.certifyNs);
      AllocSpan a(t.certifyAllocs);
      const CertifyReport cert =
          certifyStream(loop, clustered, code, machine, CertifyLayer::Virtual);
      c.certifiedValues += cert.certifiedValues;
      if (!cert.ok()) {
        c.stoppedAt = "certify";
        return c;
      }
    }

    BankAssignment alloc;
    if (options.allocateRegisters) {
      {
        ScopedStageTimer s(t.regallocNs);
        AllocSpan a(t.regallocAllocs);
        alloc = assignBanks(code, clustered.partition, machine);
      }
      t.spills += alloc.totalSpills;
      if (!alloc.success) {
        if (attempt >= options.maxAllocRetries) {
          c.stoppedAt = "allocation retries";
          return c;
        }
        schedOpts.startII = sched.ii + 1;
        continue;
      }
    }

    if (options.simulate) {
      ScopedStageTimer s(t.simulateNs);
      const SimResult sim = simulate(code, clustered.loop, machine, &clustered.partition);
      if (!checkEquivalence(loop, code, sim).equal) {
        c.stoppedAt = "simulate";
        return c;
      }
      c.virtualCycles = sim.totalCycles;
      t.simulatedCycles += sim.totalCycles;
    }

    if (options.allocateRegisters && (options.certify || options.simulate)) {
      const PipelinedCode phys = [&] {
        ScopedStageTimer s(t.regallocNs);
        AllocSpan a(t.regallocAllocs);
        return applyPhysicalAssignment(code, alloc);
      }();
      if (options.certify) {
        ScopedStageTimer s(t.certifyNs);
        AllocSpan a(t.certifyAllocs);
        const CertifyReport cert =
            certifyStream(loop, clustered, phys, machine, CertifyLayer::Physical);
        c.certifiedValues += cert.certifiedValues;
        if (!cert.ok()) {
          c.stoppedAt = "physical certify";
          return c;
        }
      }
      if (options.simulate) {
        ScopedStageTimer s(t.simulateNs);
        const PipelinedCode ssa = ssaRename(phys, clustered.loop, machine.lat);
        const SimResult sim = simulate(ssa, clustered.loop, machine, &clustered.partition);
        if (!checkEquivalence(loop, ssa, sim).equal) {
          c.stoppedAt = "physical simulate";
          return c;
        }
        t.simulatedCycles += sim.totalCycles;
      }
    }
    c.completed = true;
    return c;
  }
}

}  // namespace

LayerTotals replayLayers(const std::vector<std::pair<Loop, MachineDesc>>& items,
                         const PipelineOptions& options) {
  LayerTotals t;
  for (const auto& [loop, machine] : items) {
    ++t.loops;
    std::int64_t start = nowNs();
    const LoopResult row = compileLoop(loop, machine, options);
    t.compileOutsideNs += nowNs() - start;
    t.compileTraceNs += row.trace.totalNs;

    setAllocCounting(true);
    start = nowNs();
    const LoopCounts c = replayOne(loop, machine, options, t);
    t.replayWallNs += nowNs() - start;
    setAllocCounting(false);

    // Where the two paths part, the replay is not comparable: report it.
    std::string diverged;
    if (!row.ok) {
      diverged = std::string("compileLoop failed (") + failureClassName(row.failureClass) + ")";
    } else if (row.trace.fallbackUsed != 0) {
      diverged = "compileLoop took a partitioner fallback";
    } else if (!c.completed) {
      diverged = "replay stopped at " + c.stoppedAt;
    }
    const std::string where = loop.name + "@" + machine.name + ": ";
    if (!diverged.empty()) {
      ++t.diverged;
      t.divergedLoops.push_back(where + diverged);
    } else {
      // Same path: every deterministic count must agree.
      auto agree = [&](const char* what, std::int64_t replayed, std::int64_t traced) {
        if (replayed != traced)
          t.mismatches.push_back(where + what + " " + std::to_string(replayed) + " vs " +
                                 std::to_string(traced));
      };
      agree("schedPlacements", c.placements, row.trace.schedPlacements);
      agree("verifiedOps", c.verifiedOps, row.trace.verifiedOps);
      agree("certifiedValues", c.certifiedValues, row.trace.certifiedValues);
      agree("simulatedCycles", c.virtualCycles, row.trace.simulatedCycles);
      agree("bodyCopies", c.bodyCopies, row.bodyCopies);
    }
    t.placements += c.placements;
    t.verifiedOps += c.verifiedOps;
    t.certifiedValues += c.certifiedValues;
  }
  return t;
}

CodecTotals measureCodecs(const std::vector<LoopResult>& rows, const std::string& journalPath) {
  CodecTotals c;
  JournalWriter journal;
  Json header = Json::object();
  header["source"] = "perfbench";
  if (!journal.create(journalPath, std::move(header))) {
    ++c.decodeFailures;
    return c;
  }
  for (const LoopResult& row : rows) {
    ++c.rows;
    std::int64_t start = nowNs();
    const Json doc = encodeLoopResult(row);
    const std::string text = doc.dumpCompact();
    c.encodeNs += nowNs() - start;
    c.bytes += static_cast<std::int64_t>(text.size());

    start = nowNs();
    Json parsed;
    LoopResult back;
    std::string error;
    const bool ok = Json::parse(text, parsed, error) && decodeLoopResult(parsed, back, error);
    c.decodeNs += nowNs() - start;
    if (!ok) ++c.decodeFailures;

    Json record = Json::object();
    record["kind"] = "row";
    record["result"] = doc;
    start = nowNs();
    if (journal.append(record)) ++c.fsyncs;
    c.appendNs += nowNs() - start;
  }
  journal.close();
  return c;
}

void reportLayers(const LayerTotals& t, Report& report) {
  const double n = std::max(1, t.loops);
  auto perLoop = [&](const char* name, std::int64_t ns) {
    report.set(name, static_cast<double>(ns) / n);
  };
  auto count = [&](const char* name, std::int64_t v) {
    report.set(name, static_cast<double>(v));
  };
  perLoop("analysis.ns", t.analysisNs);
  perLoop("ddg.ns", t.ddgNs);
  count("ddg.edges", t.ddgEdges);
  perLoop("sched.ideal_ns", t.idealNs);
  perLoop("sched.reschedule_ns", t.rescheduleNs);
  count("sched.placements", t.placements);
  perLoop("partition.rcg_ns", t.rcgNs);
  count("partition.rcg_edges", t.rcgEdges);
  perLoop("partition.greedy_ns", t.greedyNs);
  perLoop("partition.copy_insert_ns", t.copyInsertNs);
  count("partition.copies", t.copies);
  perLoop("sched.emit_ns", t.emitNs);
  count("sched.emitted_ops", t.emittedOps);
  perLoop("regalloc.ns", t.regallocNs);
  count("regalloc.spills", t.spills);
  count("regalloc.allocs", t.regallocAllocs);
  perLoop("verify.ns", t.verifyNs);
  count("verify.ops", t.verifiedOps);
  perLoop("certify.ns", t.certifyNs);
  count("certify.values", t.certifiedValues);
  count("certify.allocs", t.certifyAllocs);
  perLoop("vliwsim.ns", t.simulateNs);
  count("vliwsim.cycles", t.simulatedCycles);

  count("replay.loops", t.loops);
  count("replay.diverged", t.diverged);
  for (const std::string& d : t.divergedLoops)
    std::fprintf(stderr, "perfbench: replay diverged: %s\n", d.c_str());
  for (const std::string& m : t.mismatches)
    report.check(false, "replay counted differently from compileLoop: " + m);
  const double outside = static_cast<double>(std::max<std::int64_t>(1, t.compileOutsideNs));
  const double skew = (outside - static_cast<double>(t.compileTraceNs)) / outside;
  report.set("replay.timer_skew_share", skew);
  // The outside timer brackets the call whose totalNs the row reports, so it
  // may only read a little longer.
  report.check(skew >= 0.0 && skew < 0.05,
               "outside timer around compileLoop disagrees with trace.totalNs (skew " +
                   std::to_string(skew) + ")");
  report.set("trace.overhead_share",
             (static_cast<double>(t.replayWallNs) - outside) / outside);
}

void reportCodecs(const CodecTotals& c, Report& report) {
  const double n = std::max(1, c.rows);
  report.set("json.encode_ns", static_cast<double>(c.encodeNs) / n);
  report.set("json.decode_ns", static_cast<double>(c.decodeNs) / n);
  report.set("json.bytes", static_cast<double>(c.bytes) / n);
  report.set("journal.append_ns", static_cast<double>(c.appendNs) / n);
  report.set("journal.fsyncs", static_cast<double>(c.fsyncs));
  report.check(c.decodeFailures == 0, "a result row did not survive encode/decode");
}

}  // namespace rapt::perfbench
