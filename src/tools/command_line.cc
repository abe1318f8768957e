#include "tools/command_line.h"

#include <cerrno>
#include <cstdlib>

namespace sgtree {

CommandLine::CommandLine(std::vector<std::string> args) {
  size_t i = 0;
  while (i < args.size() && args[i].rfind("--", 0) != 0) {
    positional_.push_back(std::move(args[i]));
    ++i;
  }
  while (i < args.size()) {
    if (args[i].rfind("--", 0) != 0) {
      error_ = "expected a --flag, got '" + args[i] + "'";
      return;
    }
    // `--name=value` carries its value inline; `--name value` spans two
    // tokens.
    if (const size_t eq = args[i].find('='); eq != std::string::npos) {
      flags_.emplace_back(args[i].substr(2, eq - 2), args[i].substr(eq + 1));
      ++i;
      continue;
    }
    if (i + 1 >= args.size()) {
      error_ = "flag '" + args[i] + "' is missing a value";
      return;
    }
    flags_.emplace_back(args[i].substr(2), std::move(args[i + 1]));
    i += 2;
  }
  used_.assign(flags_.size(), false);
}

std::optional<std::string> CommandLine::GetString(
    const std::string& name) const {
  for (size_t i = 0; i < flags_.size(); ++i) {
    if (flags_[i].first == name) {
      used_[i] = true;
      return flags_[i].second;
    }
  }
  return std::nullopt;
}

std::optional<int64_t> CommandLine::GetInt(const std::string& name) const {
  const auto value = GetString(name);
  if (!value.has_value()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value->c_str(), &end, 10);
  if (value->empty() || *end != '\0' || errno == ERANGE) {
    bad_values_.push_back("--" + name + " expects an integer, got '" +
                          *value + "'");
    return std::nullopt;
  }
  return parsed;
}

std::optional<double> CommandLine::GetDouble(const std::string& name) const {
  const auto value = GetString(name);
  if (!value.has_value()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value->c_str(), &end);
  if (value->empty() || *end != '\0' || errno == ERANGE) {
    bad_values_.push_back("--" + name + " expects a number, got '" + *value +
                          "'");
    return std::nullopt;
  }
  return parsed;
}

std::string CommandLine::StringOr(const std::string& name,
                                  const std::string& fallback) const {
  return GetString(name).value_or(fallback);
}

int64_t CommandLine::IntOr(const std::string& name, int64_t fallback) const {
  return GetInt(name).value_or(fallback);
}

double CommandLine::DoubleOr(const std::string& name,
                             double fallback) const {
  return GetDouble(name).value_or(fallback);
}

uint64_t CommandLine::UintOr(const std::string& name, uint64_t fallback,
                             uint64_t max) const {
  const auto value = GetInt(name);
  if (!value.has_value()) return fallback;
  if (*value < 0) {
    bad_values_.push_back("--" + name +
                          " expects a non-negative integer, got '" +
                          std::to_string(*value) + "'");
    return fallback;
  }
  if (static_cast<uint64_t>(*value) > max) {
    bad_values_.push_back("--" + name + " expects an integer <= " +
                          std::to_string(max) + ", got '" +
                          std::to_string(*value) + "'");
    return fallback;
  }
  return static_cast<uint64_t>(*value);
}

bool CommandLine::BoolOr(const std::string& name, bool fallback) const {
  const auto value = GetString(name);
  if (!value.has_value()) return fallback;
  if (*value == "0" || *value == "1") return *value == "1";
  bad_values_.push_back("--" + name + " expects 0 or 1, got '" + *value +
                        "'");
  return fallback;
}

std::vector<std::string> CommandLine::UnusedFlags() const {
  std::vector<std::string> unused;
  for (size_t i = 0; i < flags_.size(); ++i) {
    if (!used_[i]) unused.push_back(flags_[i].first);
  }
  return unused;
}

std::string CommandLine::FlagError() const {
  if (!bad_values_.empty()) return bad_values_.front();
  const std::vector<std::string> unused = UnusedFlags();
  if (unused.empty()) return std::string();
  std::string message = "unknown flag(s):";
  for (const std::string& flag : unused) message += " --" + flag;
  return message;
}

}  // namespace sgtree
