// Lightweight key=value configuration.
//
// Bench and example binaries accept `key=value` command-line overrides and a
// REPRO_FAST-style environment knob; this class parses and type-checks them.
// Keys are flat strings ("rounds", "auction.v_weight"); values are parsed on
// demand with full validation and defaulting. Every lookup records its key,
// so a binary can reject keys it never read (typos, removed options) instead
// of silently running on defaults.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace sfl::util {

class Config {
 public:
  Config() = default;

  /// Parses argv-style tokens of the form `key=value`. Tokens without '='
  /// throw std::invalid_argument. Later duplicates override earlier ones.
  static Config from_args(int argc, const char* const* argv);

  /// Parses a newline-separated `key=value` text block. '#' starts a comment.
  static Config from_text(std::string_view text);

  void set(std::string key, std::string value);

  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> raw(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// All keys in sorted order (for echoing a run's configuration).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Keys that were set but never looked up through contains(), raw() or a
  /// get_*() call, in sorted order.
  [[nodiscard]] std::vector<std::string> unread_keys() const;

 private:
  std::map<std::string, std::string> values_;
  /// Keys looked up so far (lookups are const, hence mutable).
  mutable std::set<std::string> read_;
};

/// True when the REPRO_FAST environment variable is set to a truthy value
/// ("1", "true", "yes", "on"); benches shrink their workloads accordingly.
[[nodiscard]] bool fast_mode_enabled();

/// True when the SFL_VALIDATE environment variable is set to a truthy value
/// (same spellings as REPRO_FAST), or always in debug (!NDEBUG) builds. The
/// auction hot path validates candidate data once at slate construction;
/// this flag re-enables the full per-candidate scans inside every solver
/// call for debugging. Cached after the first call.
[[nodiscard]] bool validate_mode_enabled();

}  // namespace sfl::util
