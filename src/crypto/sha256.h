// SHA-256 (FIPS 180-4), implemented from scratch — the environment is offline
// and the library must not depend on a system crypto package. Whole blocks go
// to a compression kernel picked once per process by CPUID: the x86-64 SHA
// extensions when present, else a portable scalar kernel (sha256_kernels.h).

#ifndef CLANDAG_CRYPTO_SHA256_H_
#define CLANDAG_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace clandag {

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  using DigestBytes = std::array<uint8_t, kDigestSize>;

  Sha256();

  // Streaming interface.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  DigestBytes Finalize();

  // One-shot convenience.
  static DigestBytes Hash(const uint8_t* data, size_t len);
  static DigestBytes Hash(const Bytes& data) { return Hash(data.data(), data.size()); }

 private:
  void ProcessBlocks(const uint8_t* data, size_t nblocks);

  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_len_ = 0;
};

}  // namespace clandag

#endif  // CLANDAG_CRYPTO_SHA256_H_
