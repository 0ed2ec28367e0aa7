// Minimal stand-ins for the clandag types the fixtures exercise. The checks
// match on *names* (Reader, Mutex, MutexLock, *Handler), so these stubs keep
// the fixtures self-contained — no dependency on the real tree, no risk of a
// fixture failing because an unrelated src/ header changed. Declarations
// only where possible: fixture TUs are analyzed, never linked, and a stub
// body could itself trip a check.

#ifndef CLANDAG_TIDY_TEST_STUBS_CLANDAG_STUBS_H_
#define CLANDAG_TIDY_TEST_STUBS_CLANDAG_STUBS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

// Hot-path annotation macros, mirroring src/common/hot_path.h: fixtures are
// always analyzed by clang, so the annotate attribute is unconditional here.
#define CLANDAG_HOT __attribute__((annotate("clandag::hot")))
#define CLANDAG_COLD __attribute__((annotate("clandag::cold")))
#define CLANDAG_REQUIRES(...) __attribute__((requires_capability(__VA_ARGS__)))

namespace clandag {

using Bytes = std::vector<uint8_t>;

// Thread-role capability — what clandag-loop-blocking keys on. A function
// annotated CLANDAG_REQUIRES(<ThreadRole member>) runs pinned to that
// thread (the TCP loop).
class __attribute__((capability("role"))) ThreadRole {};

// Mirror of common/mutex.h §13's rank table: kOracle / kInjector are the
// coarse bands a loop thread must never wait behind.
namespace lock_rank {
inline constexpr int kOracle = 10;
inline constexpr int kInjector = 20;
inline constexpr int kWorkPool = 40;
inline constexpr int kTcpCommand = 80;
}  // namespace lock_rank

// Wire decoder — the taint source for clandag-wire-taint.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size);
  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64();
  uint64_t Varint();
  bool Need(size_t n);
  bool ok() const;
};

// Lock types — what clandag-callback-under-lock keys on. The (name, rank)
// constructor mirrors the real Mutex so fixtures can declare ranked members
// for clandag-loop-blocking.
class __attribute__((capability("mutex"))) Mutex {
 public:
  Mutex();
  Mutex(const char* name, int rank);
  void Lock() __attribute__((acquire_capability()));
  void Unlock() __attribute__((release_capability()));
};

class __attribute__((scoped_lockable)) MutexLock {
 public:
  explicit MutexLock(Mutex& mu) __attribute__((acquire_capability(mu)));
  ~MutexLock() __attribute__((release_capability()));
};

// Condition variable — what clandag-cv-wait-loop keys on. Mirrors the real
// API shape: no predicate overloads, timed waits return false on timeout.
class CondVar {
 public:
  void NotifyOne();
  void NotifyAll();
  void Wait(Mutex& mu);
  bool WaitUntil(Mutex& mu, long long deadline);
  bool WaitFor(Mutex& mu, long long timeout) {
    // Delegation inside CondVar itself is the one exempt non-looping wait.
    return WaitUntil(mu, timeout);
  }
};

// Subscriber interface — the virtual-dispatch callback shape.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void OnMessage(int from) = 0;
};

// Pooling types — the sanctioned allocation routes clandag-hotpath-alloc
// whitelists by class name. Declarations only: fixtures never link.
class PooledBytes {
 public:
  PooledBytes();
  Bytes& operator*();
  Bytes* operator->();
  explicit operator bool() const;
};

class BufferPool {
 public:
  static BufferPool& Global();
  PooledBytes Acquire();
};

// Arena allocator + aliases: growth through NodeAllocator recycles NodeArena
// slots, so ArenaMap/ArenaSet growth is exempt. Members are declared but
// never defined — fixture TUs are analyzed, not linked.
template <typename T>
class NodeAllocator {
 public:
  using value_type = T;
  NodeAllocator() noexcept;
  template <typename U>
  NodeAllocator(const NodeAllocator<U>&) noexcept;  // NOLINT(google-explicit-constructor)
  T* allocate(size_t n);
  void deallocate(T* p, size_t n) noexcept;
};

template <typename A, typename B>
bool operator==(const NodeAllocator<A>&, const NodeAllocator<B>&) noexcept;
template <typename A, typename B>
bool operator!=(const NodeAllocator<A>&, const NodeAllocator<B>&) noexcept;

template <typename K, typename V, typename Cmp = std::less<K>>
using ArenaMap = std::map<K, V, Cmp, NodeAllocator<std::pair<const K, V>>>;
template <typename K, typename Cmp = std::less<K>>
using ArenaSet = std::set<K, Cmp, NodeAllocator<K>>;

// Canonical quorum helpers (declarations only — the real arithmetic lives in
// src/common/quorum.h, the one file clandag-quorum-literal whitelists).
uint32_t ByzantineQuorum(uint32_t num_faults);
uint32_t ReadyAmplifyThreshold(uint32_t num_faults);
int64_t MaxTribeFaults(int64_t num_nodes);

}  // namespace clandag

#endif  // CLANDAG_TIDY_TEST_STUBS_CLANDAG_STUBS_H_
