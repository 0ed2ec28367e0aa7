// HMAC-SHA256 (RFC 2104).

#ifndef CLANDAG_CRYPTO_HMAC_H_
#define CLANDAG_CRYPTO_HMAC_H_

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace clandag {

// Computes HMAC-SHA256(key, data) from scratch: hashes the key's ipad and
// opad blocks on every call. The one-shot reference; authenticators on the
// protocol path go through Keychain, which holds an HmacKey per party.
Sha256::DigestBytes HmacSha256(const Bytes& key, const uint8_t* data, size_t len);

inline Sha256::DigestBytes HmacSha256(const Bytes& key, const Bytes& data) {
  return HmacSha256(key, data.data(), data.size());
}

// A key schedule: the inner and outer hash states after absorbing the
// key's ipad and opad blocks. Mac() then costs the message's blocks plus
// two finalizations, and gives the same bytes as HmacSha256(key, ...).
class HmacKey {
 public:
  explicit HmacKey(const Bytes& key);

  Sha256::DigestBytes Mac(const uint8_t* data, size_t len) const;
  Sha256::DigestBytes Mac(const Bytes& data) const { return Mac(data.data(), data.size()); }

 private:
  Sha256 inner_;
  Sha256 outer_;
};

}  // namespace clandag

#endif  // CLANDAG_CRYPTO_HMAC_H_
