// Workload paper-suite: the paper's Table 1/2 experiment as the table benches
// run it (bench/BenchCommon.h BenchHarness): runSuite per machine, one
// thread, every oracle on, each row journaled with an fsync'd append.
//
// The corpus is fixed (the paper's 211 loops); the seed picks the machine
// order and the loop order. Rows are hashed back in corpus order, so the
// pinned hashes below hold for every seed.
#include <cstdio>
#include <map>

#include "LayerReplay.h"
#include "Workloads.h"
#include "pipeline/Suite.h"
#include "pipeline/WorkerProtocol.h"
#include "shard/ShardProtocol.h"
#include "support/Rng.h"
#include "workload/LoopGenerator.h"

namespace rapt::perfbench {
namespace {

/// semanticRowsHash of each paper machine's 211 rows in corpus order, as the
/// pipeline computes them today. A change that alters any result row, and
/// not just its wall times, changes these.
const std::map<std::string, std::string>& pinnedRowsHashes() {
  static const std::map<std::string, std::string> pins = {
      {"2-cluster-embedded", "41fa555c542961df"}, {"2-cluster-copyunit", "e034ca15890854f2"},
      {"4-cluster-embedded", "e5300e5b8f843da7"}, {"4-cluster-copyunit", "128a4daa2f491145"},
      {"8-cluster-embedded", "f1563daec4d1f200"}, {"8-cluster-copyunit", "5eb44402c8e46052"},
  };
  return pins;
}

struct Corpus {
  std::vector<Loop> loops;
  std::vector<MachineDesc> machines;
};

/// Set-up: generate the corpus and machines, then warm the allocator and
/// code paths with a few compiles, so timing starts from a steady process.
Corpus setUp(std::vector<double>& seconds) {
  const std::int64_t start = nowNs();
  Corpus c;
  c.loops = generateCorpus(GeneratorParams{});
  c.machines = paperMachines();
  for (std::size_t i = 0; i < 8; ++i) (void)compileLoop(c.loops[i], c.machines[2]);
  seconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
  return c;
}

/// Rows of a rotated corpus put back into corpus order.
std::vector<LoopResult> corpusOrder(const std::vector<LoopResult>& rows, std::size_t start) {
  std::vector<LoopResult> out(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) out[(start + i) % rows.size()] = rows[i];
  return out;
}

}  // namespace

void runPaperSuite(const RunArgs& args, Report& report) {
  // Set-up three times before the first suite and once after each suite, so
  // the median samples the machine over the whole run.
  std::vector<double> setupSeconds;
  Corpus corpus;
  for (int i = 0; i < 3; ++i) corpus = setUp(setupSeconds);

  SplitMix64 rng(args.seed);
  const std::size_t n = corpus.loops.size();
  const std::size_t machineStart = rng.next() % corpus.machines.size();
  const std::size_t loopStart = rng.next() % n;
  std::vector<Loop> ordered;
  for (std::size_t i = 0; i < n; ++i) ordered.push_back(corpus.loops[(loopStart + i) % n]);

  RunDir dir("paper-suite");
  PipelineOptions opt;
  opt.threads = 1;
  opt.journalPath = dir.file("journal.jsonl");

  std::vector<std::int64_t> compileNs;
  std::int64_t rows = 0, wallNs = 0, summedTotalNs = 0;
  std::map<std::string, std::string> firstHash;
  std::map<std::string, double> kernelSize;
  std::vector<LoopResult> codecRows;
  const std::int64_t deadline = nowNs() + static_cast<std::int64_t>(args.seconds) * 1'000'000'000;

  // One full pass over the six machines at least, then whole suites until
  // the time is up. The traced run makes exactly one pass.
  for (std::size_t call = 0;; ++call) {
    if (call >= corpus.machines.size() && (args.trace || nowNs() >= deadline)) break;
    const MachineDesc& machine =
        corpus.machines[(machineStart + call) % corpus.machines.size()];
    const std::int64_t start = nowNs();
    const SuiteResult s = runSuite(ordered, machine, opt);
    wallNs += nowNs() - start;
    std::remove(opt.journalPath.c_str());
    if (!args.trace) (void)setUp(setupSeconds);
    rows += static_cast<std::int64_t>(s.loops.size());

    const std::string hash = hashToHex(semanticRowsHash(corpusOrder(s.loops, loopStart)));
    bool hashOk = true;
    const auto pin = pinnedRowsHashes().find(machine.name);
    if (pin == pinnedRowsHashes().end() || pin->second != hash) {
      hashOk = false;
      report.check(false, "rowsHash " + hash + " on " + machine.name +
                              " differs from the pinned value");
    }
    if (!firstHash.count(machine.name)) {
      firstHash[machine.name] = hash;
      kernelSize[machine.name] = s.arithMeanNormalized;
      if (codecRows.empty()) codecRows = s.loops;
    } else if (firstHash[machine.name] != hash) {
      hashOk = false;
      report.check(false, "rowsHash changed between two suites on " + machine.name);
    }
    report.check(s.trace.verifyViolations == 0 && s.trace.certifyViolations == 0,
                 "verifier or certifier violations on " + machine.name);
    for (const LoopResult& r : s.loops) {
      compileNs.push_back(r.trace.totalNs);
      summedTotalNs += r.trace.totalNs;
      report.attempt(hashOk && (r.ok || isCapacityClass(r.failureClass)));
    }
  }

  double meanKernel = 0.0;
  for (const auto& [name, v] : kernelSize) meanKernel += v;
  meanKernel /= static_cast<double>(std::max<std::size_t>(1, kernelSize.size()));

  if (!args.trace) {
    report.set("setup_s", medianOf(setupSeconds));
    report.set("latency_ms.p50", percentileMs(compileNs, 50));
    report.set("latency_ms.p99", percentileMs(compileNs, 99));
    report.set("compile_ms.p50", percentileMs(compileNs, 50));
    report.set("compile_ms.p99", percentileMs(compileNs, 99));
    report.set("throughput_per_s", static_cast<double>(rows) / (static_cast<double>(wallNs) / 1e9));
    report.set("kernel_size_norm", meanKernel);
    report.set("peak_rss_mb", selfPeakRssMb());
    return;
  }

  // Traced: the layers, from a seeded sample of loops on every machine.
  report.set("pipeline.unattributed_share",
             1.0 - static_cast<double>(summedTotalNs) / static_cast<double>(wallNs));
  const std::size_t sample = std::min<std::size_t>(n, 4 * static_cast<std::size_t>(args.seconds));
  std::vector<std::pair<Loop, MachineDesc>> items;
  for (const MachineDesc& m : corpus.machines) {
    for (std::size_t i = 0; i < sample; ++i) items.emplace_back(ordered[i], m);
  }
  reportLayers(replayLayers(items, PipelineOptions{}), report);
  reportCodecs(measureCodecs(codecRows, dir.file("codec.jsonl")), report);
}

}  // namespace rapt::perfbench
