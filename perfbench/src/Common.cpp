#include "Common.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "shard/ShardProtocol.h"
#include "support/Stats.h"

extern char** environ;

namespace rapt::perfbench {

void Report::set(const std::string& name, double value) {
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics_.emplace_back(name, value);
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const auto& m) { return m.first == name; });
}

void Report::check(bool ok, const std::string& why) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

std::string Report::resultLine(std::span<const MetricDecl> declared) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < declared.size(); ++i) {
    double value = 0.0;
    for (const auto& [n, v] : metrics_) {
      if (n == declared[i].name) value = v;
    }
    // %.17g round-trips a double: every digit as measured.
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    if (i > 0) out += ", ";
    out += std::string("\"") + declared[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           declared[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentileMs(const std::vector<std::int64_t>& samplesNs, double p) {
  return static_cast<double>(percentile(samplesNs, p)) / 1e6;
}

double medianOf(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::vector<MachineDesc> paperMachines() {
  std::vector<MachineDesc> out;
  for (int clusters : {2, 4, 8}) {
    for (CopyModel model : {CopyModel::Embedded, CopyModel::CopyUnit})
      out.push_back(MachineDesc::paper16(clusters, model));
  }
  return out;
}

std::string semanticText(const Json& resultDoc) {
  return stripWallTimes(resultDoc).dumpCompact();
}

// ---- RunDir ----

RunDir::RunDir(const std::string& tag)
    : path_(".bench_run/" + tag + "-" + std::to_string(::getpid())) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
  if (ec) std::fprintf(stderr, "perfbench: cannot create %s: %s\n", path_.c_str(),
                       ec.message().c_str());
}

RunDir::~RunDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  if (std::filesystem::exists(path_))
    std::fprintf(stderr, "perfbench: could not remove %s\n", path_.c_str());
  // The parent is shared with concurrent runs: drop it only when empty.
  std::filesystem::remove(".bench_run", ec);
}

// ---- Child ----

Child::~Child() {
  if (pid_ > 0) (void)stop(SIGKILL, 5000);
}

bool Child::start(const std::vector<std::string>& argv, const std::string& logPath) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);
  const int rc = posix_spawn(&pid_, args[0], &fa, &attr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  posix_spawnattr_destroy(&attr);
  if (rc != 0) {
    pid_ = -1;
    std::fprintf(stderr, "perfbench: cannot spawn %s: %s\n", args[0], std::strerror(rc));
    return false;
  }
  return true;
}

double Child::peakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

int Child::stop(int sig, int timeoutMs) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, sig);
  int status = 0;
  bool forced = false;
  for (int waited = 0;; waited += 5) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0) {
      pid_ = -1;
      return -1;
    }
    if (waited >= timeoutMs && !forced) {
      ::kill(-pid_, SIGKILL);  // the whole process group
      forced = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  if (forced) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// ---- process hygiene ----

void becomeSubreaper() { (void)::prctl(PR_SET_CHILD_SUBREAPER, 1); }

namespace {

/// Reaps every exited child; true once no child is left at all.
bool reapExited() {
  pid_t r = 0;
  while ((r = ::waitpid(-1, nullptr, WNOHANG)) > 0) {
  }
  return r < 0;  // ECHILD
}

}  // namespace

int reapLeakedChildren() {
  // A winding-down descendant gets a second to finish on its own.
  for (int i = 0; i < 40; ++i) {
    if (reapExited()) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  int leaked = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream st(entry.path() / "stat");
    std::string stat;
    std::getline(st, stat);
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    int ppid = 0;
    char state = 0;
    if (std::sscanf(stat.c_str() + close + 1, " %c %d", &state, &ppid) != 2) continue;
    if (ppid != ::getpid() || state == 'Z') continue;
    std::fprintf(stderr, "perfbench: leaked child process: %s\n", stat.c_str());
    ::kill(std::stoi(name), SIGKILL);
    ++leaked;
  }
  for (int i = 0; i < 200 && !reapExited(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  return leaked;
}

double selfPeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double childrenPeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace rapt::perfbench
