#include "crypto/keychain.h"

#include "common/check.h"
#include "common/codec.h"

namespace clandag {

Keychain::Keychain(uint64_t system_seed, uint32_t num_parties) {
  keys_.reserve(num_parties);
  for (uint32_t i = 0; i < num_parties; ++i) {
    Writer w;
    w.Str("clandag-key");
    w.U64(system_seed);
    w.U32(i);
    Sha256::DigestBytes key = Sha256::Hash(w.Buffer());
    // bounded: exactly num_parties keys, fixed at construction.
    keys_.emplace_back(Bytes(key.begin(), key.end()));
  }
}

Signature Keychain::Sign(NodeId signer, const Bytes& message) const {
  CLANDAG_CHECK(signer < keys_.size());
  return Signature{Digest(keys_[signer].Mac(message))};
}

bool Keychain::Verify(NodeId signer, const Bytes& message, const Signature& sig) const {
  if (signer >= keys_.size()) {
    return false;
  }
  return Digest(keys_[signer].Mac(message)) == sig.mac;
}

}  // namespace clandag
