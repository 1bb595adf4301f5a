#include "sim/config.hpp"

#include <stdexcept>

namespace sv::sim {

Config Config::from_args(const std::vector<std::string>& args) {
  Config cfg;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("Config: expected key=value, got: " + arg);
    }
    cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return cfg;
}

void Config::set_u64(const std::string& key, std::uint64_t value) {
  values_[key] = std::to_string(value);
}

void Config::set_double(const std::string& key, double value) {
  values_[key] = std::to_string(value);
}

void Config::set_bool(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

const std::string* Config::find(const std::string& key) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it != values_.end() ? &it->second : nullptr;
}

std::string Config::get_string(const std::string& key,
                               const std::string& def) const {
  const std::string* v = find(key);
  return v != nullptr ? *v : def;
}

std::uint64_t Config::get_u64(const std::string& key,
                              std::uint64_t def) const {
  const std::string* v = find(key);
  return v != nullptr ? std::stoull(*v, nullptr, 0) : def;
}

double Config::get_double(const std::string& key, double def) const {
  const std::string* v = find(key);
  return v != nullptr ? std::stod(*v) : def;
}

bool Config::get_bool(const std::string& key, bool def) const {
  const std::string* found = find(key);
  if (found == nullptr) {
    return def;
  }
  const std::string& v = *found;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  throw std::invalid_argument("Config: bad bool for " + key + ": " + v);
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) {
    values_[k] = v;
  }
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (read_.count(k) == 0) {
      out.push_back(k);
    }
  }
  return out;
}

}  // namespace sv::sim
