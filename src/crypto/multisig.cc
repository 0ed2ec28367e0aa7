#include "crypto/multisig.h"

#include "common/check.h"
#include "common/codec.h"

namespace clandag {

void SignerBitmap::Set(NodeId id) {
  CLANDAG_CHECK(id < num_parties_);
  bits()[id / 8] |= static_cast<uint8_t>(1u << (id % 8));
}

bool SignerBitmap::Test(NodeId id) const {
  if (id >= num_parties_) {
    return false;
  }
  return (bits()[id / 8] >> (id % 8)) & 1u;
}

uint32_t SignerBitmap::Count() const {
  uint32_t total = 0;
  const uint8_t* b = bits();
  for (size_t i = 0; i < ByteLen(); ++i) {
    total += static_cast<uint32_t>(__builtin_popcount(b[i]));
  }
  return total;
}

std::vector<NodeId> SignerBitmap::Ids() const {
  std::vector<NodeId> out;
  out.reserve(Count());
  for (NodeId id = 0; id < num_parties_; ++id) {
    if (Test(id)) {
      out.push_back(id);
    }
  }
  return out;
}

void SignerBitmap::Serialize(Writer& w) const {
  w.U32(num_parties_);
  w.Blob(bits(), ByteLen());
}

SignerBitmap SignerBitmap::Parse(Reader& r) {
  SignerBitmap b;
  b.num_parties_ = r.U32();
  const size_t expected = b.ByteLen();
  const uint64_t len = r.Varint();
  if (!r.ok() || len != expected || len > r.Remaining()) {
    r.Invalidate();
    b.num_parties_ = 0;
    b.overflow_.clear();
    return b;
  }
  if (expected > kInlineBytes) {
    b.overflow_.assign(expected, 0);
  }
  r.Raw(b.bits(), expected);
  return b;
}

MultiSig MultiSig::Aggregate(const SignerBitmap& signers, const std::vector<Signature>& parts) {
  CLANDAG_CHECK(signers.Count() == parts.size());
  Sha256::DigestBytes agg;
  agg.fill(0);
  for (const Signature& sig : parts) {
    const auto& mac = sig.mac.bytes();
    for (size_t i = 0; i < agg.size(); ++i) {
      agg[i] ^= mac[i];
    }
  }
  MultiSig out;
  out.signers_ = signers;
  out.aggregate_ = Digest(agg);
  return out;
}

bool MultiSig::Verify(const Keychain& keychain, const Bytes& message) const {
  Sha256::DigestBytes expected;
  expected.fill(0);
  for (NodeId id : signers_.Ids()) {
    if (id >= keychain.num_parties()) {
      return false;
    }
    // Recompute the signer's authenticator under its cached key schedule.
    const Signature part = keychain.Sign(id, message);
    for (size_t i = 0; i < expected.size(); ++i) {
      expected[i] ^= part.mac.bytes()[i];
    }
  }
  return Digest(expected) == aggregate_;
}

void MultiSig::Serialize(Writer& w) const {
  signers_.Serialize(w);
  aggregate_.Serialize(w);
}

MultiSig MultiSig::Parse(Reader& r) {
  MultiSig out;
  out.signers_ = SignerBitmap::Parse(r);
  out.aggregate_ = Digest::Parse(r);
  return out;
}

}  // namespace clandag
