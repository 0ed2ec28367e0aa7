// Loopback listen ports for the TCP tests.
//
// `ctest -j` runs many test processes at once, so fixed or pid-salted port
// ranges collide, and TcpRuntime's bind check then aborts the test. Instead
// every cluster takes a block of ports that were free when probed. Blocks
// lie below Linux's ephemeral range (32768 and up), so no outbound
// connection can hold one, and start at a pid-derived offset so concurrent
// processes probe apart.

#ifndef CLANDAG_TESTS_TEST_PORTS_H_
#define CLANDAG_TESTS_TEST_PORTS_H_

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>

#include "common/check.h"

namespace clandag::test {

// Ports per block: the largest cluster a test may start on one base port.
inline constexpr uint16_t kPortBlock = 8;

inline bool LoopbackPortFree(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  // Same option as TcpRuntime's listener: a TIME_WAIT leftover does not
  // block it, a live listener does.
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

// Base of kPortBlock consecutive loopback ports, all free right now. Each
// call moves on to a new block, so clusters in one process never share one.
inline uint16_t FreeBasePort() {
  constexpr uint32_t kFirst = 10000;
  constexpr uint32_t kBlocks = (32768 - kFirst) / kPortBlock;
  // A prime stride spreads consecutive pids across the whole range.
  static uint32_t next = static_cast<uint32_t>(getpid()) * 7919u;
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

}  // namespace clandag::test

#endif  // CLANDAG_TESTS_TEST_PORTS_H_
