// compact-serve lifecycle for the benchmark: start the daemon on a private
// socket in a fresh directory, wait until it accepts, and on every exit
// path drain it with SIGTERM and reap it.
#pragma once

#include <string>
#include <sys/types.h>

namespace corpusbench {

class daemon_process {
 public:
  /// Start `executable` with `threads` workers, listening on a socket in a
  /// new directory created under `scratch_root`. Returns once a client can
  /// connect; throws std::runtime_error (after reaping the child) if the
  /// daemon exits or does not accept within 60 s.
  daemon_process(const std::string& executable,
                 const std::string& scratch_root, int threads);
  ~daemon_process();
  daemon_process(const daemon_process&) = delete;
  daemon_process& operator=(const daemon_process&) = delete;

  /// Socket path, relative to the benchmark's working directory.
  [[nodiscard]] const std::string& socket_path() const { return socket_; }
  /// Peak resident set of the daemon so far (VmHWM), in MB.
  [[nodiscard]] double peak_rss_mb() const;
  /// SIGTERM, wait for a clean exit (SIGKILL after 30 s), remove the
  /// directory. Idempotent. Returns true when the daemon exited with 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  std::string dir_;
  std::string socket_;
};

/// One closed-loop client connection.
class serve_client {
 public:
  explicit serve_client(const std::string& socket_path);
  ~serve_client();
  serve_client(const serve_client&) = delete;
  serve_client& operator=(const serve_client&) = delete;
  /// Send one JSON line and block for the reply line.
  [[nodiscard]] std::string round_trip(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace corpusbench
