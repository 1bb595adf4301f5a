// Simple typed key=value configuration store used to parameterize the
// machine (clock periods, queue sizes, firmware handler costs, ...). It
// remembers which keys were read, so a driver that reads everything it
// understands up front can reject the rest as typos.
#pragma once

#include <cstdint>
#include <initializer_list>
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
  /// Parse one key=value per line (a snapshot's embedded config); empty
  /// lines are skipped, malformed ones throw.
  static Config from_text(const std::string& text);

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  void set_u64(const std::string& key, std::uint64_t value);

  [[nodiscard]] bool contains(const std::string& key) const {
    return find(key) != nullptr;
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& def = "") const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;
  /// get_u64, but a value outside [lo, hi] throws std::invalid_argument.
  [[nodiscard]] std::uint64_t get_u64_in(const std::string& key,
                                         std::uint64_t def, std::uint64_t lo,
                                         std::uint64_t hi) const;
  /// The index in `allowed` of the key's value (or of `def`); any other
  /// value throws std::invalid_argument naming the allowed ones.
  [[nodiscard]] std::size_t get_choice(
      const std::string& key, const std::string& def,
      std::initializer_list<const char*> allowed) const;

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
