// The server under test as a child process: `puppies serve` on an
// ephemeral loopback port, killed with the generator if the generator dies.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace servebench {

class ServerProcess {
 public:
  /// Starts `exe serve --port 0 --port-file <dir>/port-<tag>` (the default
  /// server config otherwise) with its output in <dir>/server-<tag>.log and
  /// waits until it listens. Both files must not exist yet: replacing a file
  /// frees disk blocks, which on some disks stalls for tens of ms, and
  /// start-up is timed. Throws std::runtime_error if the server exits or
  /// does not listen within 30 s.
  ServerProcess(const std::string& exe, const std::string& dir,
                const std::string& tag);
  /// SIGINT (graceful drain), then SIGKILL after 10 s; always reaps.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  void stop();

  /// utime + stime so far, in ms (from /proc/<pid>/stat).
  double cpu_ms() const;
  /// Peak resident set (VmHWM), in MB.
  double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace servebench
