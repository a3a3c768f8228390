#include "util/config.h"

#include <cstdlib>
#include <stdexcept>

#include "util/require.h"
#include "util/string_utils.h"

namespace sfl::util {

Config Config::from_args(int argc, const char* const* argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    const auto eq = token.find('=');
    require(eq != std::string_view::npos && eq > 0,
            "configuration arguments must look like key=value");
    config.set(std::string(token.substr(0, eq)), std::string(token.substr(eq + 1)));
  }
  return config;
}

Config Config::from_text(std::string_view text) {
  Config config;
  for (const auto& raw_line : split(text, '\n')) {
    std::string line = std::string(trim(raw_line));
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line = std::string(trim(std::string_view(line).substr(0, hash)));
    }
    if (line.empty()) continue;
    const auto eq = line.find('=');
    require(eq != std::string::npos && eq > 0,
            "configuration lines must look like key=value");
    config.set(std::string(trim(std::string_view(line).substr(0, eq))),
               std::string(trim(std::string_view(line).substr(eq + 1))));
  }
  return config;
}

void Config::set(std::string key, std::string value) {
  require(!key.empty(), "configuration keys must be non-empty");
  values_[std::move(key)] = std::move(value);
}

bool Config::contains(const std::string& key) const {
  read_.insert(key);
  return values_.contains(key);
}

std::optional<std::string> Config::raw(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key, std::string fallback) const {
  const auto value = raw(key);
  return value.has_value() ? *value : std::move(fallback);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto value = raw(key);
  if (!value.has_value()) return fallback;
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(*value, &consumed);
    require(consumed == value->size(), "trailing characters in numeric value");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + key + "' is not a double: " + *value);
  }
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  const auto value = raw(key);
  if (!value.has_value()) return fallback;
  try {
    std::size_t consumed = 0;
    const long long parsed = std::stoll(*value, &consumed);
    require(consumed == value->size(), "trailing characters in integer value");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + key + "' is not an integer: " + *value);
  }
}

std::size_t Config::get_size(const std::string& key, std::size_t fallback) const {
  const std::int64_t parsed = get_int(key, static_cast<std::int64_t>(fallback));
  require(parsed >= 0, "config key '" + key + "' must be non-negative");
  return static_cast<std::size_t>(parsed);
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto value = raw(key);
  if (!value.has_value()) return fallback;
  if (*value == "1" || *value == "true" || *value == "yes" || *value == "on") return true;
  if (*value == "0" || *value == "false" || *value == "no" || *value == "off") return false;
  throw std::invalid_argument("config key '" + key + "' is not a boolean: " + *value);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!read_.contains(key)) out.push_back(key);
  }
  return out;
}

namespace {

[[nodiscard]] bool env_truthy(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return false;
  const std::string_view value = raw;
  return value == "1" || value == "true" || value == "yes" || value == "on";
}

}  // namespace

bool fast_mode_enabled() { return env_truthy("REPRO_FAST"); }

bool validate_mode_enabled() {
#ifndef NDEBUG
  return true;
#else
  static const bool enabled = env_truthy("SFL_VALIDATE");
  return enabled;
#endif
}

}  // namespace sfl::util
