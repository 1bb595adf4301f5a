// Simple typed key=value configuration store used to parameterize the
// machine (clock periods, queue sizes, firmware handler costs, ...). It
// remembers which keys were read, so a driver that reads everything it
// understands up front can reject the rest as typos.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace sv::sim {

class Config {
 public:
  Config() = default;

  /// Parse "key=value" strings (e.g. from argv); malformed entries throw.
  static Config from_args(const std::vector<std::string>& args);

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  void set_u64(const std::string& key, std::uint64_t value);
  void set_double(const std::string& key, double value);
  void set_bool(const std::string& key, bool value);

  [[nodiscard]] bool contains(const std::string& key) const {
    return find(key) != nullptr;
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& def = "") const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  [[nodiscard]] const std::map<std::string, std::string>& all() const {
    return values_;
  }

  /// Merge `other` on top of this config (other wins on conflicts).
  void merge(const Config& other);

  /// Keys that no contains()/get_*() call has asked for yet, in key order.
  [[nodiscard]] std::vector<std::string> unread_keys() const;

 private:
  /// The value of `key` (nullptr when unset); marks the key read.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace sv::sim
