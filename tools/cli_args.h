// Minimal command-line flag parser for the autosens CLI: `--name value`
// and `--flag` style options after a positional subcommand. No dependency,
// strict by default (unknown flags are errors).
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace autosens::cli {

class Args {
 public:
  /// Parse argv after the subcommand. `boolean_flags` names flags that take
  /// no value. Throws std::invalid_argument on malformed input.
  Args(int argc, const char* const* argv, int begin,
       const std::set<std::string>& boolean_flags);

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& fallback) const;
  /// Throws std::invalid_argument when missing.
  std::string require(const std::string& name) const;

  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// Range-checked get_int, converted to T: the value must lie in [lo, hi]
  /// (default: every non-negative value T holds), or std::invalid_argument
  /// names the flag and the range. A port or count flag can never wrap.
  /// T is always explicit: args.get_int<std::uint16_t>("port", 0).
  template <std::integral T>
  T get_int(const std::string& name, std::type_identity_t<T> fallback,
            std::type_identity_t<T> lo = 0,
            std::type_identity_t<T> hi = std::numeric_limits<T>::max()) const {
    const std::int64_t value = get_int(name, static_cast<std::int64_t>(fallback));
    if (std::cmp_less(value, lo) || std::cmp_greater(value, hi)) {
      throw std::invalid_argument("flag --" + name + " must be in [" + std::to_string(lo) +
                                  ", " + std::to_string(hi) +
                                  "], got: " + std::to_string(value));
    }
    return static_cast<T>(value);
  }
  double get_double(const std::string& name, double fallback) const;

  /// Verify every provided flag is in `allowed`; throws otherwise (lists
  /// the offending flag).
  void allow_only(const std::set<std::string>& allowed) const;

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
};

}  // namespace autosens::cli
