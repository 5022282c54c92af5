#include "cluster.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/string_util.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Live children, for the fatal-signal handler. Plain atomics: the
// handler may only read them.
constexpr size_t kMaxChildren = 64;
std::atomic<pid_t> g_children[kMaxChildren];

void TrackChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void UntrackChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

// Waits for `pid` until `deadline`; true when it ended (and was reaped).
bool WaitUntil(pid_t pid, Clock::time_point deadline) {
  for (;;) {
    pid_t done = ::waitpid(pid, nullptr, WNOHANG);
    if (done == pid || done < 0) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

std::vector<pid_t> FindSiteProcesses() {
  std::vector<pid_t> found;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return found;
  while (dirent* entry = ::readdir(proc)) {
    char* end = nullptr;
    long pid = std::strtol(entry->d_name, &end, 10);
    if (pid <= 0 || *end != '\0') continue;
    std::string comm = ReadFile(skalla::StrCat("/proc/", pid, "/comm"));
    while (!comm.empty() && comm.back() == '\n') comm.pop_back();
    if (comm == "skalla-site") found.push_back(static_cast<pid_t>(pid));
  }
  ::closedir(proc);
  return found;
}

uint64_t PeakRssBytes(pid_t pid) {
  std::ifstream in(skalla::StrCat("/proc/", pid, "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

uint64_t SelfPeakRssBytes() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

double CpuSeconds(pid_t pid) {
  clockid_t clock;
  timespec ts{};
  if (::clock_getcpuclockid(pid, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

double HostStealSeconds() {
  // "cpu  user nice system idle iowait irq softirq steal ..." in ticks.
  std::istringstream line(ReadFile("/proc/stat"));
  std::string label;
  uint64_t field = 0, steal = 0;
  line >> label;
  for (int i = 0; i < 8 && line >> field; ++i) steal = field;
  return static_cast<double>(steal) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

skalla::Status Cluster::Start(const std::string& binary,
                              const std::string& data_dir, size_t sites,
                              uint64_t buffer_bytes,
                              const std::string& log_dir) {
  const pid_t driver = ::getpid();
  std::vector<std::string> logs;
  for (size_t i = 0; i < sites; ++i) {
    std::string log = skalla::StrCat(log_dir, "/site", i, ".out");
    std::string site_arg = std::to_string(i);
    std::string budget_arg = std::to_string(buffer_bytes);
    int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) return skalla::Status::IOError("cannot create " + log);
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fd);
      return skalla::Status::Internal("fork failed");
    }
    if (pid == 0) {
      // Die with the driver, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != driver) ::_exit(126);
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      const char* argv[] = {binary.c_str(), "--data", data_dir.c_str(),
                            "--site", site_arg.c_str(), "--port", "0",
                            "--buffer-bytes", budget_arg.c_str(), nullptr};
      ::execv(binary.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(fd);
    TrackChild(pid);
    sites_.push_back({pid, 0});
    logs.push_back(log);
  }

  // All sites load their partitions concurrently; wait for every
  // announcement.
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  for (size_t i = 0; i < sites; ++i) {
    for (;;) {
      std::string out = ReadFile(logs[i]);
      size_t at = out.find("LISTENING port=");
      if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
        sites_[i].port = std::atoi(out.c_str() + at + 15);
        break;
      }
      if (::waitpid(sites_[i].pid, nullptr, WNOHANG) == sites_[i].pid) {
        UntrackChild(sites_[i].pid);
        sites_[i].pid = -1;
        return skalla::Status::Internal(
            skalla::StrCat("site ", i, " exited during start-up: ", out));
      }
      if (Clock::now() > deadline) {
        return skalla::Status::DeadlineExceeded(
            skalla::StrCat("site ", i, " did not announce its port"));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return skalla::Status::OK();
}

std::vector<skalla::rpc::SiteEndpoint> Cluster::endpoints() const {
  std::vector<skalla::rpc::SiteEndpoint> out;
  for (const Site& site : sites_) out.push_back({"127.0.0.1", site.port});
  return out;
}

uint64_t Cluster::SumPeakRssBytes() const {
  uint64_t total = 0;
  for (const Site& site : sites_) {
    if (site.pid > 0) total += PeakRssBytes(site.pid);
  }
  return total;
}

double Cluster::SumCpuSeconds() const {
  double total = 0;
  for (const Site& site : sites_) {
    if (site.pid > 0) total += CpuSeconds(site.pid);
  }
  return total;
}

void Cluster::Reap(int grace_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
  for (Site& site : sites_) {
    if (site.pid <= 0) continue;
    if (!WaitUntil(site.pid, deadline)) {
      ::kill(site.pid, SIGTERM);
      if (!WaitUntil(site.pid, Clock::now() + std::chrono::seconds(2))) {
        ::kill(site.pid, SIGKILL);
        ::waitpid(site.pid, nullptr, 0);
      }
    }
    UntrackChild(site.pid);
    site.pid = -1;
  }
  sites_.clear();
}

void KillAllChildrenFromSignal() {
  for (auto& slot : g_children) {
    pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (auto& slot : g_children) {
    pid_t pid = slot.load();
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
}

}  // namespace perfbench
