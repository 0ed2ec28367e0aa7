#include "net/loopback_ports.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>

#include "common/check.h"

namespace clandag {

bool LoopbackPortFree(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool bound = bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  close(fd);
  return bound;
}

uint16_t FreeBasePort() {
  constexpr uint32_t kFirst = 10000;
  constexpr uint32_t kBlocks = (32768 - kFirst) / kPortBlock;
  // A prime stride spreads consecutive pids across the whole range.
  static std::atomic<uint32_t> next{static_cast<uint32_t>(getpid()) * 7919u};
  for (uint32_t attempt = 0; attempt < kBlocks; ++attempt) {
    const auto base = static_cast<uint16_t>(kFirst + (next++ % kBlocks) * kPortBlock);
    bool all_free = true;
    for (uint16_t i = 0; i < kPortBlock && all_free; ++i) {
      all_free = LoopbackPortFree(static_cast<uint16_t>(base + i));
    }
    if (all_free) {
      return base;
    }
  }
  CLANDAG_CHECK_MSG(false, "no free block of loopback ports below 32768");
  return 0;
}

}  // namespace clandag
