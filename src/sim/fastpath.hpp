// Global fast-path kill switch.
//
// The bus bypass (DESIGN.md §12) is on by default; SV_NO_FASTPATH=1 in the
// environment forces the MemBus::Params.fastpath default to false, which is
// the escape hatch the byte-identity tests and the golden corpus use to
// compare modes. Components read the environment once — per-run toggling goes
// through the explicit Params flags, not the environment.
#pragma once

#include <cstdlib>

namespace sv::sim {

/// Default value of the fast-path Params flag: true unless
/// SV_NO_FASTPATH is set to a non-empty value other than "0".
inline bool fastpath_default() {
  static const bool enabled = [] {
    const char* v = std::getenv("SV_NO_FASTPATH");
    return v == nullptr || v[0] == '\0' || (v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}

}  // namespace sv::sim
