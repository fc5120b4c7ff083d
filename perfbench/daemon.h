#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// One rsse_serverd child process. Start() spawns it with its stdout and
/// stderr sent to `log_path` and waits for the "listening on" banner,
/// which carries the bound port (the daemon runs with --port=0). The
/// destructor SIGKILLs and reaps a child still running, so no daemon
/// outlives the benchmark.
class Daemon {
 public:
  Daemon(std::string binary, std::vector<std::string> args,
         std::string log_path);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  rsse::Status Start(double timeout_s = 60);
  /// Sends `sig` and reaps the child.
  void Stop(int sig);
  bool running() const { return pid_ > 0; }
  uint16_t port() const { return port_; }

  /// User + system CPU of the daemon so far, in milliseconds (from
  /// /proc/<pid>/stat).
  double CpuMillis() const;
  /// Peak resident set (VmHWM from /proc/<pid>/status), in MiB.
  double PeakRssMiB() const;

 private:
  std::string binary_;
  std::vector<std::string> args_;
  std::string log_path_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
