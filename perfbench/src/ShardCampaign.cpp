// Workload shard-campaign: the rapt-shard binary over the leading rows of the
// default manifest with its default cheap pipeline (schedule, partition and
// allocate; no simulation, verification or certification) and two
// concurrent shards. The seed picks how many shards (9 or 10) each dispatch
// round plans, so every seed compiles the same loops through its own job
// plan. Peak RSS follows the rows per shard, so the choice stays narrow.
// Here the paper's own passes and the infrastructure (fsync per row, JSON
// rows, shard fork/exec, journal scan and merge) do the work and the
// certifier does none.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stop_token>
#include <thread>

#include "LayerReplay.h"
#include "Workloads.h"
#include "pipeline/Suite.h"
#include "pipeline/WorkerProtocol.h"
#include "shard/ShardProtocol.h"
#include "support/Journal.h"
#include "support/Rng.h"
#include "support/Subprocess.h"
#include "workload/CorpusManifest.h"

namespace rapt::perfbench {
namespace {

constexpr int kRows = 2000;
constexpr int kConcurrency = 2;
constexpr int kSetupEveryMs = 250;
/// semanticRowsHash of those rows as the pipeline computes them today.
constexpr const char* kPinnedRowsHash = "6558fe62989aea0c";

/// rapt-shard's default pipeline and machine (tools/rapt_shard.cpp).
PipelineOptions cheapPipeline() {
  PipelineOptions o;
  o.simulate = false;
  o.verify = false;
  o.certify = false;
  o.threads = 1;
  return o;
}
MachineDesc shardMachine() { return MachineDesc::paper16(4, CopyModel::Embedded); }

struct Campaign {
  bool ok = false;
  std::int64_t wallNs = 0;
  std::string rowsHash;
  int rows = 0, attempts = 0;
  double kernelSize = 0.0;
};

std::string readFile(const std::string& path) {
  std::string text;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[65536];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
    std::fclose(f);
  }
  return text;
}

/// One rapt-shard process over the manifest, journaling into `journalDir`,
/// read back from its BENCH_shard.json.
Campaign runCampaign(const RunArgs& args, const ManifestParams& mp, int shards,
                     const std::string& journalDir, const std::string& benchOut, bool resume,
                     Report& report) {
  SubprocessSpec spec;
  spec.argv = {args.toolsDir + "/rapt-shard", "--seed", std::to_string(mp.seed), "--count",
               std::to_string(mp.count), "--shards", std::to_string(shards), "--concurrency",
               std::to_string(kConcurrency), "--journal-dir", journalDir, "--bench-out",
               benchOut};
  if (resume) spec.argv.push_back("--resume");
  Campaign c;
  const std::int64_t start = nowNs();
  const SubprocessResult r = runSubprocess(spec);
  c.wallNs = nowNs() - start;
  if (!r.exitedCleanly()) {
    report.check(false, "rapt-shard failed (exit " + std::to_string(r.exitCode) + ", signal " +
                            std::to_string(r.signal) + "): " + r.err);
    return c;
  }
  Json doc;
  std::string error;
  const Json* agg = nullptr;
  const Json* rob = nullptr;
  if (Json::parse(readFile(benchOut), doc, error)) {
    agg = doc.find("aggregates");
    rob = doc.find("robustness");
  }
  if (agg == nullptr || rob == nullptr || agg->find("rowsHash") == nullptr) {
    report.check(false, "unreadable BENCH_shard.json " + error);
    return c;
  }
  c.ok = true;
  c.rowsHash = agg->find("rowsHash")->asString();
  c.rows = static_cast<int>(agg->find("rows")->asInt());
  c.kernelSize = agg->find("arithMeanNormalized")->asDouble();
  c.attempts = static_cast<int>(rob->find("attemptsLaunched")->asInt());
  return c;
}

/// Every journaled row of a finished campaign (shard/ShardProtocol.h).
std::vector<LoopResult> journalRows(const std::string& journalDir) {
  std::vector<LoopResult> rows;
  for (const auto& entry : std::filesystem::directory_iterator(journalDir)) {
    if (entry.path().extension() != ".jsonl") continue;
    for (const Json& row : loadJournal(entry.path().string()).rows) {
      const Json* result = row.find("result");
      LoopResult r;
      std::string error;
      if (result != nullptr && decodeLoopResult(*result, r, error)) rows.push_back(std::move(r));
    }
  }
  return rows;
}

}  // namespace

void runShardCampaign(const RunArgs& args, Report& report) {
  ManifestParams mp;
  mp.count = kRows;
  const CorpusManifest manifest(mp);
  const int shards = 9 + static_cast<int>(SplitMix64(args.seed).next() % 2);

  // Set-up: materialize the manifest slice. Nine times before the first
  // campaign, then every kSetupEveryMs on a thread of its own while the
  // campaigns run. One set-up takes about 13 ms and the host's speed drifts
  // over seconds, so only samples spread over the whole run give a median
  // that repeats; the sampler keeps a fourth core about 5% busy beside the
  // orchestrator and its two shard children.
  std::vector<double> setupSeconds;
  std::atomic<bool> emptyManifest{false};
  const auto setUp = [&] {
    const std::int64_t start = nowNs();
    std::size_t ops = 0;
    for (int k = 0; k < manifest.size(); ++k) ops += manifest.materialize(k).body.size();
    setupSeconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
    if (ops == 0) emptyManifest = true;
  };
  for (int i = 0; i < 9; ++i) setUp();

  RunDir dir("shard-campaign");
  const std::string benchOut = dir.file("BENCH_shard.json");
  std::vector<Campaign> campaigns;
  std::vector<std::int64_t> rowNs;
  std::string journal;
  std::jthread sampler;
  if (!args.trace) {
    sampler = std::jthread([&](const std::stop_token& stop) {
      while (!stop.stop_requested()) {
        setUp();
        std::this_thread::sleep_for(std::chrono::milliseconds(kSetupEveryMs));
      }
    });
  }
  const std::int64_t deadline = nowNs() + static_cast<std::int64_t>(args.seconds) * 1'000'000'000;
  // Whole campaigns until the time is up; the traced run makes one.
  for (int k = 0; campaigns.empty() || (!args.trace && nowNs() < deadline); ++k) {
    if (!journal.empty()) std::filesystem::remove_all(journal);
    journal = dir.file("journal-" + std::to_string(k));
    std::filesystem::create_directories(journal);
    Campaign c = runCampaign(args, mp, shards, journal, benchOut, false, report);
    if (!c.ok) return;
    for (const LoopResult& r : journalRows(journal)) rowNs.push_back(r.trace.totalNs);
    campaigns.push_back(std::move(c));
  }
  if (sampler.joinable()) {
    sampler.request_stop();
    sampler.join();
  }
  report.check(!emptyManifest, "empty manifest");
  const double childRssMb = childrenPeakRssMb();

  // Correctness: every campaign's rowsHash equals an in-process streamed
  // suite over the same manifest. Rows that failed with a capacity class
  // are that loop's correct answer, so only a hash mismatch fails rows.
  PipelineOptions ref = cheapPipeline();
  ref.threads = 2;
  const SuiteResult local = runSuiteStreamed(
      {manifest.size(), [&](int i) { return manifest.materialize(i); }}, shardMachine(), ref);
  const std::string localHash = hashToHex(semanticRowsHash(local.loops));
  const bool pinned = localHash == kPinnedRowsHash;
  report.check(pinned, "in-process rowsHash " + localHash + " differs from the pinned value");
  std::vector<double> rowsPerSecond;
  for (const Campaign& c : campaigns) {
    const bool same = pinned && c.rowsHash == localHash && c.rows == kRows;
    report.check(same, "rapt-shard rowsHash " + c.rowsHash + " differs from in-process " +
                           localHash);
    for (int i = 0; i < c.rows; ++i) report.attempt(same);
    rowsPerSecond.push_back(static_cast<double>(c.rows) / (static_cast<double>(c.wallNs) / 1e9));
  }
  report.check(local.trace.verifyViolations == 0 && local.trace.certifyViolations == 0,
               "verifier or certifier violations");

  if (!args.trace) {
    report.set("setup_s", medianOf(setupSeconds));
    report.set("latency_ms.p50", percentileMs(rowNs, 50));
    report.set("latency_ms.p99", percentileMs(rowNs, 99));
    report.set("compile_ms.p50", percentileMs(rowNs, 50));
    report.set("compile_ms.p99", percentileMs(rowNs, 99));
    report.set("throughput_per_s", medianOf(rowsPerSecond));
    report.set("kernel_size_norm", campaigns.front().kernelSize);
    report.set("peak_rss_mb", childRssMb);
    return;
  }

  // Traced: the campaign's own counters, a resume over its complete
  // journals (scan and merge only), and the layers of a fixed row sample.
  const Campaign& c = campaigns.front();
  report.set("shard.attempts", c.attempts);
  std::int64_t busyNs = 0;
  for (std::int64_t ns : rowNs) busyNs += ns;
  report.set("shard.busy_share",
             static_cast<double>(busyNs) / (static_cast<double>(c.wallNs) * kConcurrency));
  const std::vector<LoopResult> journaled = journalRows(journal);
  const Campaign resumed = runCampaign(args, mp, shards, journal, benchOut, true, report);
  report.check(resumed.rowsHash == localHash, "resumed campaign rowsHash differs");
  report.set("shard.scan_merge_s", static_cast<double>(resumed.wallNs) / 1e9);

  std::vector<std::pair<Loop, MachineDesc>> items;
  for (int i = 0; i < std::min(kRows, 20 * args.seconds); ++i)
    items.emplace_back(manifest.materialize(i), shardMachine());
  reportLayers(replayLayers(items, cheapPipeline()), report);
  reportCodecs(measureCodecs(journaled, dir.file("codec.jsonl")), report);
}

}  // namespace rapt::perfbench
