// lint_invariants fixture: unset-knob must pass this file. Every field is
// assigned, brace-initialized (designated or positional), copied from a
// written or waived knob, or is itself a config struct.
#include <string>

namespace clandag {

struct PoolOptions {
  int num_workers = 0;
  int max_batch = 16;
  int max_pending = 64;
};
class Pool {
 public:
  struct Options {
    int queue_depth = 8;
  };
};
struct NodeConfig {
  PoolOptions pool;
  std::string host = "127.0.0.1";  // lint:allow(unset-knob): a deployment address.
  std::string peer_host;
  int window = 4;
};

void Configure(NodeConfig& config, NodeConfig* other) {
  config.pool = PoolOptions{2, 4};
  config.pool.max_pending += 8;
  config.peer_host = config.host;
  other->window = 8;
  Pool::Options pool_options{.queue_depth = 2};
  (void)pool_options;
}

}  // namespace clandag
