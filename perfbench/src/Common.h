// Shared pieces of the benchmark runner: the result line every workload
// fills, timers and percentiles, the scratch directory each run works in,
// the daemon child process, and the leak checks run before a result is
// printed.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pipeline/CompilerPipeline.h"
#include "support/Json.h"

namespace rapt::perfbench {

/// The command line of one run (perfbench/README.md).
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string toolsDir;  ///< directory holding rapt-served, rapt-shard, rapt-worker
};

/// A metric BENCHMARK.json declares: its name and unit.
struct MetricDecl {
  const char* name;
  const char* unit;
};

/// What one run reports: the JSON object printed as the last stdout line.
class Report {
 public:
  void set(const std::string& name, double value);
  [[nodiscard]] bool has(const std::string& name) const;

  /// One attempted operation; `ok == false` counts it as failed.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A correctness gate: when `ok` is false the run is not correct, and
  /// `why` goes to stderr so the log says which gate failed.
  void check(bool ok, const std::string& why);

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] double okShare() const {
    return attempted_ == 0 ? 0.0
                           : 1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_);
  }

  /// The contract's result line over exactly `declared`, in that order,
  /// with every digit of each value. A declared metric the run did not set
  /// prints as 0.
  [[nodiscard]] std::string resultLine(std::span<const MetricDecl> declared) const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

[[nodiscard]] std::int64_t nowNs();

/// Nearest-rank percentile (p in [0, 100]) of a nanosecond sample, in
/// milliseconds.
[[nodiscard]] double percentileMs(const std::vector<std::int64_t>& samplesNs, double p);

/// Median of a small sample (set-up repetitions).
[[nodiscard]] double medianOf(std::vector<double> xs);

/// The six clustered machines of the paper (2, 4, 8 clusters; embedded and
/// copy-unit copies), in the order the table benches use.
[[nodiscard]] std::vector<MachineDesc> paperMachines();

/// Compact JSON of a result document with every *Ns key removed: the bytes
/// two compiles of one loop must agree on (shard/ShardProtocol.h
/// stripWallTimes).
[[nodiscard]] std::string semanticText(const Json& resultDoc);

/// A scratch directory `.bench_run/<tag>-<pid>` under the working directory,
/// removed with everything in it on destruction. Paths handed out are
/// relative, so Unix socket paths stay short wherever the checkout lives.
class RunDir {
 public:
  explicit RunDir(const std::string& tag);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// A long-running child (the compile daemon), spawned in its own process
/// group with stdout and stderr to a log file. The destructor kills and
/// reaps a child still running, so no exit path leaks it.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] bool start(const std::vector<std::string>& argv, const std::string& logPath);
  [[nodiscard]] bool running() const { return pid_ > 0; }
  /// Peak resident set (VmHWM) of the live child, in MiB.
  [[nodiscard]] double peakRssMb() const;
  /// Sends `sig`, waits up to `timeoutMs`, and returns the exit code (or
  /// 128+signal for a signal death); -1 if the child had to be SIGKILLed.
  int stop(int sig, int timeoutMs);

 private:
  pid_t pid_ = -1;
};

/// Makes this process the subreaper of every descendant, so a grandchild
/// orphaned by a dead daemon or orchestrator is re-parented here and the
/// leak check below sees it.
void becomeSubreaper();

/// Reaps exited descendants and kills any still running. Returns how many
/// were still running — leaked processes; the caller fails the run on > 0.
int reapLeakedChildren();

/// Peak resident set of this process, and of the largest reaped descendant,
/// in MiB (getrusage).
[[nodiscard]] double selfPeakRssMb();
[[nodiscard]] double childrenPeakRssMb();

}  // namespace rapt::perfbench
