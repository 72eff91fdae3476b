// Pieces the command-line programs (fastdnamlpp, fdmld) share: checked file
// output, the canonical result file, and the flags both parse alike. Every
// file a program writes goes through write_text_file, so a failed write is
// reported on stderr and becomes a nonzero exit, never a "wrote ..." line.
#pragma once

#include <chrono>
#include <climits>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "parallel/socket_cluster.hpp"
#include "tree/newick.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace fdml {

/// Writes `text` to `path`. On failure prints "error writing PATH" to
/// stderr and returns false.
inline bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  return true;
}

/// The canonical result file: Newick at precision 10, then "lnL %.6f".
/// Runs that must agree (serial, thread, socket, resumed, fdmld jobs and
/// their serial references) are compared byte for byte on this file, so it
/// checks the likelihood as well as the tree.
inline bool write_result_file(const std::string& path, const std::string& newick,
                              const std::vector<std::string>& names,
                              double log_likelihood) {
  char lnl[64];
  std::snprintf(lnl, sizeof lnl, "lnL %.6f\n", log_likelihood);
  return write_text_file(
      path, to_newick(tree_from_newick(newick, names), names, 10) + "\n" + lnl);
}

/// Applies --log-level. Prints the error and returns false on a bad level.
inline bool apply_log_level(const CliArgs& args) {
  if (!args.has("log-level")) return true;
  const auto level = parse_log_level(args.get("log-level", ""));
  if (!level.has_value()) {
    std::fprintf(stderr, "error: bad --log-level (debug|info|warn|error|off)\n");
    return false;
  }
  set_log_level(*level);
  return true;
}

/// A TCP port flag; an out-of-range value is a usage error, not truncated.
inline std::uint16_t port_arg(const CliArgs& args, const std::string& key) {
  return static_cast<std::uint16_t>(args.get_int(key, 0, 0, 65535));
}

/// The socket-fabric flags: --rank, --fabric-size, --host, --port,
/// --connect-timeout-ms, and --timeout-ms (the foreman's worker timeout).
inline SocketRunOptions socket_options_from_args(
    const CliArgs& args, std::int64_t default_worker_timeout_ms) {
  SocketRunOptions options;
  options.socket.rank = static_cast<int>(args.get_int("rank", 0, 0, INT_MAX));
  options.socket.size =
      static_cast<int>(args.get_int("fabric-size", 0, 0, INT_MAX));
  options.socket.host = args.get("host", "127.0.0.1");
  options.socket.port = port_arg(args, "port");
  options.socket.connect_timeout =
      std::chrono::milliseconds(args.get_int("connect-timeout-ms", 15000));
  options.foreman.worker_timeout = std::chrono::milliseconds(
      args.get_int("timeout-ms", default_worker_timeout_ms));
  return options;
}

}  // namespace fdml
