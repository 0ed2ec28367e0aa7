// Message authentication for a fixed party set.
//
// The paper uses Ed25519 signatures under a PKI. In this reproduction a
// party's "signature" is an HMAC-SHA256 authenticator under a per-party key
// derived from a system seed (see DESIGN.md §2: against the paper's static,
// scripted adversary this gives the same authenticity semantics without a
// big-number library). Verification cost for real schemes is modelled
// separately by the simulator's CPU cost hooks.

#ifndef CLANDAG_CRYPTO_KEYCHAIN_H_
#define CLANDAG_CRYPTO_KEYCHAIN_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "crypto/digest.h"
#include "crypto/hmac.h"

namespace clandag {

using NodeId = uint32_t;

// A detached signature over a message.
struct Signature {
  Digest mac;

  void Serialize(Writer& w) const { mac.Serialize(w); }
  static Signature Parse(Reader& r) { return Signature{Digest::Parse(r)}; }

  friend bool operator==(const Signature& a, const Signature& b) { return a.mac == b.mac; }
};

// Holds the signing keys of all n parties, derived deterministically from a
// system seed. Every node instantiates the same keychain (the simulation
// equivalent of a PKI setup ceremony). Each key is kept as an HmacKey, so a
// short authenticator costs two compressions instead of four.
class Keychain {
 public:
  Keychain(uint64_t system_seed, uint32_t num_parties);

  uint32_t num_parties() const { return static_cast<uint32_t>(keys_.size()); }

  Signature Sign(NodeId signer, const Bytes& message) const;
  [[nodiscard]] bool Verify(NodeId signer, const Bytes& message, const Signature& sig) const;

 private:
  std::vector<HmacKey> keys_;
};

}  // namespace clandag

#endif  // CLANDAG_CRYPTO_KEYCHAIN_H_
