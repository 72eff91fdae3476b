#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace fdml {

namespace {

[[noreturn]] void reject(const std::string& key, const std::string& value,
                         const std::string& why) {
  throw std::invalid_argument("--" + key + "=" + value + ": " + why);
}

std::int64_t parse_int(const std::string& key, const std::string& text,
                       const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') reject(key, value, "not an integer");
  if (errno == ERANGE) reject(key, value, "integer out of range");
  return parsed;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";
    }
  }
}

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : parse_int(key, it->second, it->second);
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t fallback,
                              std::int64_t min, std::int64_t max) const {
  const std::int64_t value = get_int(key, fallback);
  if (value < min || value > max) {
    reject(key, get(key, std::to_string(value)),
           "must be in " + std::to_string(min) + ".." + std::to_string(max));
  }
  return value;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') reject(key, text, "not a number");
  if (!std::isfinite(value)) reject(key, text, "number out of range");
  return value;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::int64_t> CliArgs::get_int_list(
    const std::string& key, std::vector<std::int64_t> fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(parse_int(key, item, it->second));
  }
  if (out.empty()) reject(key, it->second, "not an integer list");
  return out;
}

}  // namespace fdml
