#include "crypto/hmac.h"

#include <cstring>

namespace clandag {

namespace {

constexpr size_t kBlockSize = 64;

// Fills `ipad` and `opad` with the block-sized key (hashed first when
// longer than a block, zero-padded otherwise) XORed with 0x36 and 0x5c.
void KeyPads(const Bytes& key, uint8_t ipad[kBlockSize], uint8_t opad[kBlockSize]) {
  uint8_t key_block[kBlockSize];
  std::memset(key_block, 0, kBlockSize);
  if (key.size() > kBlockSize) {
    Sha256::DigestBytes kd = Sha256::Hash(key);
    std::memcpy(key_block, kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(key_block, key.data(), key.size());
  }
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
}

}  // namespace

Sha256::DigestBytes HmacSha256(const Bytes& key, const uint8_t* data, size_t len) {
  uint8_t ipad[kBlockSize];
  uint8_t opad[kBlockSize];
  KeyPads(key, ipad, opad);

  Sha256 inner;
  inner.Update(ipad, kBlockSize);
  inner.Update(data, len);
  Sha256::DigestBytes inner_digest = inner.Finalize();

  Sha256 outer;
  outer.Update(opad, kBlockSize);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finalize();
}

HmacKey::HmacKey(const Bytes& key) {
  uint8_t ipad[kBlockSize];
  uint8_t opad[kBlockSize];
  KeyPads(key, ipad, opad);
  inner_.Update(ipad, kBlockSize);
  outer_.Update(opad, kBlockSize);
}

Sha256::DigestBytes HmacKey::Mac(const uint8_t* data, size_t len) const {
  Sha256 inner = inner_;
  inner.Update(data, len);
  Sha256::DigestBytes inner_digest = inner.Finalize();

  Sha256 outer = outer_;
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finalize();
}

}  // namespace clandag
