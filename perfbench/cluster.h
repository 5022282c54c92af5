// A cluster of real skalla-site processes for the benchmark: spawn,
// announce-port scraping, peak-memory readout, and reaping on every exit
// path (the children also die with the driver via PR_SET_PDEATHSIG).

#ifndef SKALLA_PERFBENCH_CLUSTER_H_
#define SKALLA_PERFBENCH_CLUSTER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "rpc/tcp.h"

namespace perfbench {

/// Pids of processes named skalla-site that are alive now (any owner).
std::vector<pid_t> FindSiteProcesses();

/// Peak resident set ("VmHWM") of a live process, in bytes; 0 when the
/// process is gone or /proc is unreadable.
uint64_t PeakRssBytes(pid_t pid);

/// Max resident set of this process so far (getrusage), in bytes.
uint64_t SelfPeakRssBytes();

/// CPU time a live process (all its threads) has used so far, in seconds;
/// 0 when it is gone. On a guest kernel with paravirtual steal accounting,
/// time the hypervisor gave to other guests is not counted.
double CpuSeconds(pid_t pid);

/// Steal time of all CPUs of this machine so far, from /proc/stat, in
/// seconds: time the hypervisor gave to other guests while this one
/// wanted to run.
double HostStealSeconds();

/// One skalla-site process per partition of a saved warehouse. The
/// destructor reaps whatever is still running: SIGTERM, then SIGKILL
/// after a deadline, always waiting for each child to end.
class Cluster {
 public:
  Cluster() = default;
  ~Cluster() { Reap(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts `sites` processes of `binary` over `data_dir`
  /// (--buffer-bytes `buffer_bytes` when non-zero), all at once, and
  /// waits until each announced its port. Logs go to `log_dir`.
  skalla::Status Start(const std::string& binary, const std::string& data_dir,
                       size_t sites, uint64_t buffer_bytes,
                       const std::string& log_dir);

  std::vector<skalla::rpc::SiteEndpoint> endpoints() const;

  /// Sum of the sites' VmHWM, read while they are still alive.
  uint64_t SumPeakRssBytes() const;

  /// Sum of the sites' CPU time so far (see CpuSeconds).
  double SumCpuSeconds() const;

  /// Waits up to `grace_ms` for the children to exit on their own (after
  /// a kShutdown), then kills the rest. Idempotent.
  void Reap(int grace_ms = 5000);

 private:
  struct Site {
    pid_t pid = -1;
    int port = 0;
  };
  std::vector<Site> sites_;
};

/// Kills every site process this driver started and has not reaped yet
/// (async-signal-safe; for the driver's fatal-signal handler).
void KillAllChildrenFromSignal();

}  // namespace perfbench

#endif  // SKALLA_PERFBENCH_CLUSTER_H_
