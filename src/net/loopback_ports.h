// Loopback listen ports for local TCP clusters (tests, benches, examples).
//
// Many clusters may start at once — `ctest -j` runs test processes in
// parallel — so fixed or pid-salted port ranges collide, and TcpRuntime's
// bind check then aborts. Instead every cluster takes a block of ports that
// were free when probed. Blocks lie below Linux's ephemeral range (32768 and
// up), so no outbound connection can hold one, and start at a pid-derived
// offset so concurrent processes probe apart.

#ifndef CLANDAG_NET_LOOPBACK_PORTS_H_
#define CLANDAG_NET_LOOPBACK_PORTS_H_

#include <cstdint>

namespace clandag {

// Ports per block: the largest cluster that may start on one base port.
inline constexpr uint16_t kPortBlock = 8;

// True if a listener could bind 127.0.0.1:`port` right now (with
// SO_REUSEADDR, as TcpRuntime's listener does: a TIME_WAIT leftover does not
// block it, a live listener does).
bool LoopbackPortFree(uint16_t port);

// Base of kPortBlock consecutive loopback ports, all free right now. Each
// call moves on to a new block, so clusters in one process never share one.
// Safe to call from any thread.
uint16_t FreeBasePort();

}  // namespace clandag

#endif  // CLANDAG_NET_LOOPBACK_PORTS_H_
