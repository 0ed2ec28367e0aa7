// lint_invariants fixture: unset-knob must flag this file (three times):
// FetchConfig::enabled (only CostOptions::enabled is written),
// RouterOptions::max_pending (only copied from an unset knob) and
// IngressOptions::max_pending (written by nobody).
#include <cstddef>

namespace clandag {

struct CostOptions {
  bool enabled = false;
};
struct FetchConfig {
  bool enabled = true;
  int max_attempts = 16;
};
struct RouterOptions {
  size_t max_pending = 64;
};
struct IngressOptions {
  CostOptions cost;
  size_t max_pending = 64;
};

void Configure(IngressOptions& options, FetchConfig& fetch, RouterOptions& router) {
  options.cost.enabled = true;
  fetch.max_attempts = 2;
  router.max_pending = options.max_pending;
}

}  // namespace clandag
