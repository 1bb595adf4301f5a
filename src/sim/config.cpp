#include "sim/config.hpp"

#include <sstream>
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

Config Config::from_text(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return from_args(lines);
}

void Config::set_u64(const std::string& key, std::uint64_t value) {
  values_[key] = std::to_string(value);
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

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& v,
                            const std::string& want) {
  throw std::invalid_argument("bad value '" + v + "' for " + key +
                              " (expected " + want + ")");
}

/// Parse all of `v` with `parse`, or throw naming `key` and `want`.
template <typename Parse>
auto parse_whole(const std::string& key, const std::string& v, Parse parse,
                 const std::string& want) {
  try {
    std::size_t used = 0;
    const auto x = parse(v, &used);
    if (used == v.size()) {
      return x;
    }
  } catch (const std::exception&) {
  }
  bad_value(key, v, want);
}

}  // namespace

std::uint64_t Config::get_u64(const std::string& key,
                              std::uint64_t def) const {
  const std::string* v = find(key);
  // stoull alone would wrap "-1" and stop silently at "5x".
  const auto parse = [](const std::string& s, std::size_t* used) {
    return s.rfind('-', 0) == 0 ? *used = 0 : std::stoull(s, used, 0);
  };
  return v != nullptr ? parse_whole(key, *v, parse, "an unsigned integer")
                      : def;
}

std::uint64_t Config::get_u64_in(const std::string& key, std::uint64_t def,
                                 std::uint64_t lo, std::uint64_t hi) const {
  const std::uint64_t x = get_u64(key, def);
  if (x < lo || x > hi) {
    bad_value(key, std::to_string(x),
              std::to_string(lo) + ".." + std::to_string(hi));
  }
  return x;
}

double Config::get_double(const std::string& key, double def) const {
  const std::string* v = find(key);
  const auto parse = [](const std::string& s, std::size_t* used) {
    return std::stod(s, used);
  };
  return v != nullptr ? parse_whole(key, *v, parse, "a number") : def;
}

std::size_t Config::get_choice(
    const std::string& key, const std::string& def,
    std::initializer_list<const char*> allowed) const {
  const std::string v = get_string(key, def);
  std::string all;
  std::size_t i = 0;
  for (const char* a : allowed) {
    if (v == a) {
      return i;
    }
    all += (i++ == 0 ? "" : "|") + std::string(a);
  }
  bad_value(key, v, all);
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
  bad_value(key, v, "true|false");
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
