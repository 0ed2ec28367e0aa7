// lint_invariants fixture: hmac-per-call-key must pass this file.
// Authenticators go through Keychain or a cached HmacKey; naming
// HmacSha256(key, data) in a comment is not a call.

#include "crypto/hmac.h"
#include "crypto/keychain.h"

namespace clandag {

bool EchoAuthentic(const Keychain& keychain, NodeId signer, const Bytes& statement,
                   const Signature& sig) {
  return keychain.Verify(signer, statement, sig);
}

Sha256::DigestBytes Tag(const HmacKey& key, const Bytes& data) {
  return key.Mac(data);
}

}  // namespace clandag
