// lint_invariants fixture: hmac-per-call-key must flag this file.
// An echo check that MACs with the raw key re-hashes both key pads per echo.

#include "crypto/hmac.h"
#include "crypto/keychain.h"

namespace clandag {

bool EchoAuthentic(const Bytes& signer_key, const Bytes& statement, const Signature& sig) {
  return Digest(HmacSha256(signer_key, statement)) == sig.mac;
}

}  // namespace clandag
