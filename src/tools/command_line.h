#ifndef SGTREE_TOOLS_COMMAND_LINE_H_
#define SGTREE_TOOLS_COMMAND_LINE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace sgtree {

/// Minimal flag parser for the sgtree_cli and sgtree_serve tools: positional
/// words followed by `--name value` pairs (`--name=value` also accepted).
/// Unknown flags and malformed numbers are reported (FlagError) so typos
/// fail loudly instead of silently using defaults.
class CommandLine {
 public:
  explicit CommandLine(std::vector<std::string> args);

  /// Positional arguments (everything before the first --flag).
  const std::vector<std::string>& positional() const { return positional_; }

  /// The numeric getters accept only a whole value: "12", not "12x" or
  /// "banana". A malformed value is recorded for FlagError and reads as
  /// absent, so the *Or forms fall back to their default.
  std::optional<std::string> GetString(const std::string& name) const;
  std::optional<int64_t> GetInt(const std::string& name) const;
  std::optional<double> GetDouble(const std::string& name) const;

  std::string StringOr(const std::string& name,
                       const std::string& fallback) const;
  int64_t IntOr(const std::string& name, int64_t fallback) const;
  double DoubleOr(const std::string& name, double fallback) const;
  /// For flags the caller casts to an unsigned type: like IntOr, but a
  /// negative value or one above `max` is also recorded as malformed.
  uint64_t UintOr(const std::string& name, uint64_t fallback,
                  uint64_t max = std::numeric_limits<uint32_t>::max()) const;
  /// For on/off flags: the value must be exactly "0" or "1"; anything else
  /// is recorded as malformed ("--json expects 0 or 1, got '2'").
  bool BoolOr(const std::string& name, bool fallback) const;

  /// Flags present on the command line that were never queried via one of
  /// the getters. Call after all lookups; non-empty means a typo.
  std::vector<std::string> UnusedFlags() const;

  /// Call after all lookups: the first malformed value ("--k expects an
  /// integer, got 'banana'"), else the unknown flags ("unknown flag(s):
  /// --typo"), else empty.
  std::string FlagError() const;

  /// Parse error from construction (odd flag/value pairing), if any.
  const std::string& error() const { return error_; }

 private:
  std::vector<std::string> positional_;
  std::vector<std::pair<std::string, std::string>> flags_;
  mutable std::vector<bool> used_;
  mutable std::vector<std::string> bad_values_;
  std::string error_;
};

}  // namespace sgtree

#endif  // SGTREE_TOOLS_COMMAND_LINE_H_
