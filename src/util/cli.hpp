// Tiny command-line option parser for the example and bench executables.
// Accepts --key=value, --key value, and --flag forms. The numeric getters
// throw std::invalid_argument naming the flag when a value is empty, has
// trailing characters or overflows; the programs report that as a usage
// error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fdml {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const { return options_.count(key) != 0; }

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// As above, and also throws when the value lies outside [min, max].
  std::int64_t get_int(const std::string& key, std::int64_t fallback,
                       std::int64_t min, std::int64_t max) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Comma-separated int list, e.g. --procs=4,8,16.
  std::vector<std::int64_t> get_int_list(const std::string& key,
                                         std::vector<std::int64_t> fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace fdml
