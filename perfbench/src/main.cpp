// rapt-perfbench: the benchmark runner (perfbench/README.md).
//
//   rapt-perfbench --workload paper-suite|served-mixed|shard-campaign
//                  --seed N --seconds S --trace 0|1 --tools-dir DIR
//
// Runs one workload, checks its outputs, and prints the result object as the
// last line of stdout. Exit status: 0 when a result was printed, 2 on a bad
// command line, 1 when the run could not produce a result.
#include <cstdio>
#include <string>

#include "Common.h"
#include "Workloads.h"
#include "support/ArgParser.h"

using namespace rapt;
using namespace rapt::perfbench;

namespace {

/// The metrics BENCHMARK.json declares; a run prints exactly one list. An
/// end-to-end metric is always measured; a per-layer metric whose layer the
/// workload does not exercise reads 0, the work that layer did.
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_ms.p50", "ms"},
    {"latency_ms.p99", "ms"},
    {"compile_ms.p50", "ms"},
    {"compile_ms.p99", "ms"},
    {"throughput_per_s", "1/s"},
    {"kernel_size_norm", "%"},
    {"peak_rss_mb", "MiB"},
    {"ok_share", "share"},
};
constexpr MetricDecl kPerLayer[] = {
    {"certify.ns", "ns"},
    {"certify.values", "count"},
    {"certify.allocs", "count"},
    {"vliwsim.ns", "ns"},
    {"vliwsim.cycles", "count"},
    {"verify.ns", "ns"},
    {"verify.ops", "count"},
    {"regalloc.ns", "ns"},
    {"regalloc.spills", "count"},
    {"regalloc.allocs", "count"},
    {"sched.emit_ns", "ns"},
    {"sched.emitted_ops", "count"},
    {"analysis.ns", "ns"},
    {"ddg.ns", "ns"},
    {"ddg.edges", "count"},
    {"sched.ideal_ns", "ns"},
    {"sched.reschedule_ns", "ns"},
    {"sched.placements", "count"},
    {"partition.rcg_ns", "ns"},
    {"partition.rcg_edges", "count"},
    {"partition.greedy_ns", "ns"},
    {"partition.copy_insert_ns", "ns"},
    {"partition.copies", "count"},
    {"json.encode_ns", "ns"},
    {"json.decode_ns", "ns"},
    {"json.bytes", "bytes"},
    {"journal.append_ns", "ns"},
    {"journal.fsyncs", "count"},
    {"pipeline.unattributed_share", "share"},
    {"subprocess.spawn_ns", "ns"},
    {"service.queue_ns", "ns"},
    {"service.transport_ns", "ns"},
    {"service.hit_share", "share"},
    {"service.evictions", "count"},
    {"service.journal_bytes", "bytes"},
    {"shard.attempts", "count"},
    {"shard.busy_share", "share"},
    {"shard.scan_merge_s", "s"},
    {"replay.loops", "count"},
    {"replay.diverged", "count"},
    {"replay.timer_skew_share", "share"},
    {"trace.overhead_share", "share"},
};

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::int64_t seed = 1;
  int trace = 0;
  ArgParser parser("rapt-perfbench", "the rapt benchmark runner (perfbench/README.md)");
  parser.addString("workload", &args.workload, "paper-suite | served-mixed | shard-campaign");
  parser.addInt64("seed", &seed, "workload seed: the same seed gives the same inputs");
  parser.addInt("seconds", &args.seconds, "how long the timed phase runs");
  parser.addInt("trace", &trace, "0: end-to-end metrics; 1: per-layer metrics");
  parser.addString("tools-dir", &args.toolsDir,
                   "directory holding rapt-served, rapt-shard and rapt-worker");
  if (!parser.parse(argc, argv)) return parser.helpRequested() ? 0 : 2;
  if (args.seconds < 1 || (trace != 0 && trace != 1) || args.toolsDir.empty()) {
    std::fprintf(stderr, "rapt-perfbench: need --seconds >= 1, --trace 0|1 and --tools-dir\n");
    return 2;
  }
  args.seed = static_cast<std::uint64_t>(seed);
  args.trace = trace == 1;

  becomeSubreaper();
  Report report;
  if (args.workload == "paper-suite") {
    runPaperSuite(args, report);
  } else if (args.workload == "served-mixed") {
    runServedMixed(args, report);
  } else if (args.workload == "shard-campaign") {
    runShardCampaign(args, report);
  } else {
    std::fprintf(stderr, "rapt-perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Nothing the run started may outlive it.
  const int leaked = reapLeakedChildren();
  report.check(leaked == 0, std::to_string(leaked) + " child processes leaked");
  report.set("ok_share", report.okShare());

  bool measured = report.attempted() > 0;
  if (!args.trace) {
    for (const MetricDecl& m : kEndToEnd) measured = measured && report.has(m.name);
  }
  if (!measured) {
    std::fprintf(stderr, "rapt-perfbench: the run did not measure every metric; no result\n");
    return 1;
  }
  if (args.trace) {
    std::printf("%s\n", report.resultLine(kPerLayer).c_str());
  } else {
    std::printf("%s\n", report.resultLine(kEndToEnd).c_str());
  }
  return 0;
}
