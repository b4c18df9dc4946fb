// Workload served-mixed: rapt-served with two compile workers under
// subprocess isolation, a cache journal, and a 1 MiB cache budget that the
// stream of fresh loops overflows. Two client threads drive it closed-loop
// (each sends its next request when the previous reply arrives), because
// callers of a compile service wait for each reply.
//
// The request stream is seeded. A draw repeats one of kHot warmed loops
// with probability kHitPercent (a cache hit: socket, JSON, ResultCache) and
// otherwise asks for a fresh manifest loop that no request has named before
// (a miss: fork/exec of the per-loop worker, a full-oracle compile, cache
// insert and eviction, and an fsync'd journal append). The loops are the
// leading rows of the default manifest, each on a fixed paper machine, so
// runs with different seeds do comparable work in a different order.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string_view>
#include <thread>

#include "LayerReplay.h"
#include "Workloads.h"
#include "pipeline/Suite.h"
#include "pipeline/WorkerProtocol.h"
#include "service/Client.h"
#include "support/Rng.h"
#include "workload/CorpusManifest.h"

namespace rapt::perfbench {
namespace {

constexpr int kHot = 48;
constexpr int kHotCandidates = 64;  ///< manifest rows tried for the hot set
constexpr int kHitPercent = 75;
constexpr int kClients = 2;
constexpr int kRequestTimeoutMs = 120'000;

/// One unit of requested work: a manifest loop on one paper machine.
struct Job {
  int index = 0;
  Loop loop;
  MachineDesc machine;
};

struct Reply {
  int index = 0;
  int hotSlot = -1;    ///< index into the hot set, -1 for a fresh loop
  bool ok = false;     ///< transport succeeded and the row is a correct answer
  bool cached = false; ///< the row compiled (ok), so the daemon caches it
  bool cacheHit = false;
  std::int64_t latencyNs = 0, queueNs = 0, serviceNs = 0;
  std::int64_t doneNs = 0;  ///< completion time since the timed phase began
  std::string resultText;
};

/// Completed requests per second: the median over 4-second slices of the
/// timed phase, so one slice slowed by outside load does not set the figure.
double medianSliceRate(const std::vector<Reply>& replies, int seconds) {
  const int slices = std::max(1, seconds / 4);
  const std::int64_t sliceNs = static_cast<std::int64_t>(seconds) * 1'000'000'000 / slices;
  std::vector<double> perSlice(static_cast<std::size_t>(slices), 0.0);
  for (const Reply& r : replies) {
    const auto k = static_cast<std::size_t>(std::min<std::int64_t>(slices - 1, r.doneNs / sliceNs));
    perSlice[k] += 1.0;
  }
  for (double& n : perSlice) n /= static_cast<double>(sliceNs) / 1e9;
  return medianOf(perSlice);
}

/// Rows with an integer divide are left out of the workload: the simulator
/// traps on INT64_MIN / -1 (vliwsim evalArith), which kills the compile
/// worker, and the benchmark's workloads must be ones on which no operation
/// fails.
bool hasIntDivide(const Loop& loop) {
  return std::any_of(loop.body.begin(), loop.body.end(),
                     [](const Operation& op) { return op.op == Opcode::IDiv; });
}

/// The request universe: row i of the default manifest on a paper machine
/// drawn from i.
class Universe {
 public:
  [[nodiscard]] Job job(int index) const {
    SplitMix64 pick(static_cast<std::uint64_t>(index));
    Job j{index, manifest_.materialize(index), machines_[pick.next() % machines_.size()]};
    // Manifest names carry their stratum with '-', which the loop-text
    // grammar of the wire format does not accept in a name.
    std::replace(j.loop.name.begin(), j.loop.name.end(), '-', '_');
    return j;
  }

  /// The first row at or after `index` without an integer divide.
  [[nodiscard]] Job usableJob(int index) const {
    for (;; ++index) {
      Job j = job(index);
      if (!hasIntDivide(j.loop)) return j;
    }
  }

 private:
  std::vector<MachineDesc> machines_ = paperMachines();
  CorpusManifest manifest_;
};

struct Daemon {
  Child child;
  std::string socket, journal;
};

/// Spawns the daemon and waits for its first ping reply.
bool startDaemon(const RunArgs& args, const RunDir& dir, Daemon& d) {
  d.socket = dir.file("d.sock");
  d.journal = dir.file("cache.jsonl");
  // rapt-served writes its BENCH_served.json shutdown report here.
  ::setenv("RAPT_BENCH_DIR", dir.path().c_str(), 1);
  if (!d.child.start({args.toolsDir + "/rapt-served", "--socket", d.socket, "--jobs", "2",
                      "--isolation", "subprocess", "--cache-mb", "1", "--cache-journal",
                      d.journal, "--idle-poll-ms", "20"},
                     dir.file("daemon.log")))
    return false;
  for (int i = 0; i < 2000; ++i) {
    ServiceClient c;
    std::string error;
    Json health;
    if (c.connect(d.socket, error) && c.ping(health, error, 1000)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::fprintf(stderr, "perfbench: rapt-served did not answer a ping\n");
  return false;
}

/// SIGTERM, the 143 exit status, and the socket gone: a clean wind-down.
void stopDaemon(Daemon& d, Report& report) {
  const int status = d.child.stop(SIGTERM, 10'000);
  report.check(status == 143, "rapt-served exited " + std::to_string(status) +
                                  " after SIGTERM, expected 143");
  report.check(!std::filesystem::exists(d.socket), "rapt-served left its socket behind");
}

/// Sends every job once over kClients connections; replies in job order.
std::vector<Reply> sendAll(const Daemon& d, const std::vector<Job>& jobs) {
  std::vector<Reply> out(jobs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    ServiceClient c;
    std::string error;
    if (!c.connect(d.socket, error)) {
      std::fprintf(stderr, "perfbench: cannot connect to rapt-served: %s\n", error.c_str());
      return;
    }
    for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) {
      ServiceReply r;
      out[i].index = jobs[i].index;
      const bool sent = c.compile(jobs[i].loop, jobs[i].machine, PipelineOptions{}, r, error,
                                  kRequestTimeoutMs);
      if (!sent) std::fprintf(stderr, "perfbench: request failed: %s\n", error.c_str());
      out[i].ok = sent && (r.result.ok || isCapacityClass(r.result.failureClass));
      out[i].cached = sent && r.result.ok;
      out[i].cacheHit = r.cacheHit;
      out[i].resultText = r.resultText;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return out;
}

/// Local in-process compiles of `jobs` on four threads: the semantic bytes
/// of each, in job order.
std::vector<std::string> compileLocally(const std::vector<Job>& jobs) {
  std::vector<std::string> out(jobs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();)
      out[i] = semanticText(encodeLoopResult(compileLoop(jobs[i].loop, jobs[i].machine)));
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return out;
}

}  // namespace

void runServedMixed(const RunArgs& args, Report& report) {
  const Universe universe;
  std::vector<Job> candidates;
  for (int i = 0; static_cast<int>(candidates.size()) < kHotCandidates; ++i) {
    candidates.push_back(universe.usableJob(i));
    i = candidates.back().index;
  }

  // Set-up: daemon start to first ping, then the hot set compiled once so
  // every later repeat of it is a cache hit. Three times before the timed
  // phase and twice after it, so the median samples the machine at both
  // ends of the run. The hot set is the first kHot candidates that compile:
  // a row that fails with a capacity class is a correct answer, but the
  // daemon does not cache it.
  std::vector<double> setupSeconds;
  const auto setUp = [&](int i, std::unique_ptr<RunDir>& dir, Daemon& d,
                         std::vector<Reply>& tried) {
    dir = std::make_unique<RunDir>("served-mixed-" + std::to_string(i));
    const std::int64_t start = nowNs();
    if (!startDaemon(args, *dir, d)) {
      report.check(false, "rapt-served did not start");
      return false;
    }
    tried = sendAll(d, candidates);
    setupSeconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
    return true;
  };
  std::unique_ptr<RunDir> dir;
  Daemon d;
  std::vector<Reply> tried;
  for (int i = 0; i < 3; ++i) {
    if (d.child.running()) stopDaemon(d, report);
    if (!setUp(i, dir, d, tried)) return;
  }
  std::vector<Job> hot;
  std::vector<Reply> warm;
  for (std::size_t i = 0; i < tried.size(); ++i) {
    const Reply& r = tried[i];
    report.attempt(r.ok && !r.cacheHit);
    report.check(r.ok && !r.cacheHit,
                 "warm-up compile of loop " + std::to_string(r.index) + " failed");
    if (r.cached && hot.size() < kHot) {
      hot.push_back(candidates[i]);
      warm.push_back(r);
    }
  }
  report.check(hot.size() == kHot, "too few hot-set candidates compiled");
  if (hot.empty()) return;

  // The timed, closed-loop phase.
  std::atomic<int> nextFresh{candidates.back().index + 1};
  std::mutex mu;
  std::vector<Reply> replies;
  const std::int64_t start = nowNs();
  const std::int64_t deadline = start + static_cast<std::int64_t>(args.seconds) * 1'000'000'000;
  auto client = [&](int id) {
    SplitMix64 rng(args.seed ^ (0xc0ffee00ULL + static_cast<std::uint64_t>(id)));
    ServiceClient c;
    std::string error;
    const bool connected = c.connect(d.socket, error);
    std::vector<Reply> mine;
    while (nowNs() < deadline) {
      Reply r;
      Job fresh;
      const Job* job = nullptr;
      if (rng.chancePercent(kHitPercent)) {
        r.hotSlot = static_cast<int>(rng.next() % hot.size());
        job = &hot[static_cast<std::size_t>(r.hotSlot)];
      } else {
        fresh = universe.job(nextFresh.fetch_add(1));
        // A dropped draw: so one request in five, not four, is a miss.
        if (hasIntDivide(fresh.loop)) continue;
        job = &fresh;
      }
      r.index = job->index;
      ServiceReply sr;
      const std::int64_t t0 = nowNs();
      const bool sent = connected && c.compile(job->loop, job->machine, PipelineOptions{}, sr,
                                               error, kRequestTimeoutMs);
      r.latencyNs = nowNs() - t0;
      r.doneNs = nowNs() - start;
      r.ok = sent && (sr.result.ok || isCapacityClass(sr.result.failureClass)) &&
             sr.result.failureClass != FailureClass::Overload;
      if (sent && !r.ok)
        std::fprintf(stderr, "perfbench: loop %d on %s: %s: %s\n", r.index,
                     job->machine.name.c_str(), failureClassName(sr.result.failureClass),
                     sr.result.error.c_str());
      r.cacheHit = sr.cacheHit;
      r.queueNs = sr.queueNs;
      r.serviceNs = sr.serviceNs;
      r.resultText = std::move(sr.resultText);
      mine.push_back(std::move(r));
      if (!sent) {
        std::fprintf(stderr, "perfbench: request failed: %s\n", error.c_str());
        break;  // the client closes its connection after a transport error
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    for (Reply& r : mine) replies.push_back(std::move(r));
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) threads.emplace_back(client, t);
  for (std::thread& t : threads) t.join();

  Json stats;
  {
    ServiceClient c;
    std::string error;
    report.check(c.connect(d.socket, error) && c.stats(stats, error, 10'000),
                 "stats request failed: " + error);
  }
  const double daemonRssMb = d.child.peakRssMb();
  stopDaemon(d, report);
  struct stat st {};
  const double journalBytes =
      ::stat(d.journal.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
  for (int i = 3; i < 5 && !args.trace; ++i) {
    std::unique_ptr<RunDir> lateDir;
    Daemon late;
    std::vector<Reply> lateTried;
    if (!setUp(i, lateDir, late, lateTried)) return;
    stopDaemon(late, report);
    for (const Reply& r : lateTried) {
      report.check(r.ok && !r.cacheHit,
                   "set-up compile of loop " + std::to_string(r.index) + " failed");
    }
  }

  // Correctness: a hit replays exactly the bytes of a miss of its loop, and
  // every miss matches a local compile once wall times are stripped. A hot
  // loop the cache evicted misses again, with new wall times, and later hits
  // replay that miss's bytes instead of the warm-up's.
  std::vector<std::set<std::string_view>> missTexts(hot.size());
  for (std::size_t i = 0; i < hot.size(); ++i) missTexts[i].insert(warm[i].resultText);
  int hotMisses = 0;
  for (const Reply& r : replies) {
    if (r.hotSlot < 0 || r.cacheHit || !r.ok) continue;
    missTexts[static_cast<std::size_t>(r.hotSlot)].insert(r.resultText);
    ++hotMisses;
  }
  std::vector<Job> toCheck = hot;
  std::vector<const std::string*> texts;
  for (const Reply& r : warm) texts.push_back(&r.resultText);
  std::vector<std::int64_t> allNs, missNs;
  std::int64_t hits = 0, queueNs = 0, transportNs = 0;
  for (const Reply& r : replies) {
    bool ok = r.ok;
    if (r.hotSlot >= 0 && r.cacheHit) {
      ok = ok && missTexts[static_cast<std::size_t>(r.hotSlot)].count(r.resultText) > 0;
    } else if (r.ok) {
      toCheck.push_back(universe.job(r.index));
      texts.push_back(&r.resultText);
    }
    report.check(ok, "reply for loop " + std::to_string(r.index) + " is wrong");
    report.attempt(ok);
    allNs.push_back(r.latencyNs);
    transportNs += r.latencyNs - r.serviceNs;
    if (r.cacheHit) {
      ++hits;
    } else {
      missNs.push_back(r.latencyNs);
      queueNs += r.queueNs;
    }
  }
  const std::vector<std::string> local = compileLocally(toCheck);
  std::vector<LoopResult> hotRows;
  double kernel = 0.0;
  for (std::size_t i = 0; i < toCheck.size(); ++i) {
    Json doc;
    std::string error;
    const bool parsed = Json::parse(*texts[i], doc, error);
    if (!parsed || semanticText(doc) != local[i]) {
      report.attempt(false);
      report.check(false, "served result for loop " + std::to_string(toCheck[i].index) +
                              " differs from a local compile");
      continue;
    }
    LoopResult row;
    if (i < hot.size() && decodeLoopResult(doc, row, error)) {
      kernel += row.normalizedSize();
      hotRows.push_back(std::move(row));
    }
  }
  kernel /= static_cast<double>(hot.size());
  const double n = static_cast<double>(std::max<std::size_t>(1, replies.size()));
  const double hitShare = static_cast<double>(hits) / n;
  std::fprintf(stderr,
               "perfbench: served-mixed: %zu requests, hit share %.3f, %zu misses (%d of "
               "evicted hot loops)\n",
               replies.size(), hitShare, missNs.size(), hotMisses);

  if (!args.trace) {
    report.set("setup_s", medianOf(setupSeconds));
    report.set("latency_ms.p50", percentileMs(allNs, 50));
    report.set("latency_ms.p99", percentileMs(allNs, 99));
    report.set("compile_ms.p50", percentileMs(missNs, 50));
    report.set("compile_ms.p99", percentileMs(missNs, 99));
    report.set("throughput_per_s", medianSliceRate(replies, args.seconds));
    report.set("kernel_size_norm", kernel);
    report.set("peak_rss_mb", daemonRssMb);
    return;
  }

  const double misses = static_cast<double>(std::max<std::size_t>(1, missNs.size()));
  report.set("service.queue_ns", static_cast<double>(queueNs) / misses);
  report.set("service.transport_ns", static_cast<double>(transportNs) / n);
  report.set("service.hit_share", hitShare);
  const Json* cache = stats.find("cache");
  const Json* evictions = cache != nullptr ? cache->find("evictions") : nullptr;
  report.set("service.evictions",
             evictions != nullptr ? static_cast<double>(evictions->asInt()) : 0.0);
  report.set("service.journal_bytes", journalBytes);

  // Fork/exec of the per-loop worker: the same loops in a supervised child
  // and in-process, after the daemon is gone.
  PipelineOptions sub;
  sub.workerPath = args.toolsDir + "/rapt-worker";
  std::int64_t spawnNs = 0;
  constexpr int kSpawnLoops = 16;
  for (int i = 0; i < kSpawnLoops; ++i) {
    std::int64_t t0 = nowNs();
    const LoopResult inChild = compileLoopInSubprocess(hot[i].loop, hot[i].machine, sub);
    spawnNs += nowNs() - t0;
    t0 = nowNs();
    const LoopResult inProcess = compileLoop(hot[i].loop, hot[i].machine);
    spawnNs -= nowNs() - t0;
    report.check(semanticText(encodeLoopResult(inChild)) ==
                     semanticText(encodeLoopResult(inProcess)),
                 "subprocess and in-process compiles disagree");
  }
  report.set("subprocess.spawn_ns", static_cast<double>(spawnNs) / kSpawnLoops);

  // The layers a miss pays for: the hot set plus a fixed run of fresh rows.
  std::vector<std::pair<Loop, MachineDesc>> items;
  for (const Job& j : hot) items.emplace_back(j.loop, j.machine);
  for (int i = 0, index = candidates.back().index + 1; i < 4 * args.seconds; ++i) {
    Job j = universe.usableJob(index);
    index = j.index + 1;
    items.emplace_back(std::move(j.loop), std::move(j.machine));
  }
  reportLayers(replayLayers(items, PipelineOptions{}), report);
  reportCodecs(measureCodecs(hotRows, dir->file("codec.jsonl")), report);
}

}  // namespace rapt::perfbench
