#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/codec.h"
#include "common/hex.h"
#include "crypto/digest.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "crypto/multisig.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"

namespace clandag {
namespace {

std::string HashHex(const std::string& input) {
  Bytes b(input.begin(), input.end());
  auto digest = Sha256::Hash(b);
  return HexEncode(digest.data(), digest.size());
}

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(HashHex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(HashHex("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  auto digest = h.Finalize();
  EXPECT_EQ(HexEncode(digest.data(), digest.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<uint8_t>(i * 37));
  }
  auto oneshot = Sha256::Hash(data);
  // Feed in awkward chunk sizes crossing block boundaries.
  for (size_t chunk : {1u, 7u, 63u, 64u, 65u, 129u}) {
    Sha256 h;
    for (size_t off = 0; off < data.size(); off += chunk) {
      size_t len = std::min(chunk, data.size() - off);
      h.Update(data.data() + off, len);
    }
    EXPECT_EQ(h.Finalize(), oneshot) << "chunk size " << chunk;
  }
}

TEST(Sha256, ExactBlockBoundaryLengths) {
  // Lengths around the 55/56-byte padding boundary and the 64-byte block.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    Bytes data(len, 0x5a);
    Sha256 a;
    a.Update(data);
    Sha256 b;
    for (uint8_t byte : data) {
      b.Update(&byte, 1);
    }
    EXPECT_EQ(a.Finalize(), b.Finalize()) << "length " << len;
  }
}

// Chunk sizes that cross block boundaries in every way; SIZE_MAX feeds the
// whole input at once (the many-blocks-per-call path).
const size_t kChunkings[] = {1, 7, 63, 64, 65, 129, SIZE_MAX};

Bytes RandomBytes(std::mt19937& rng, size_t len) {
  Bytes out(len);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng());
  }
  return out;
}

// SHA-256 over one kernel, independent of Sha256's own buffering and
// padding: pads byte by byte per FIPS 180-4, then feeds the padded message
// in `chunk`-byte pieces, handing the kernel every run of whole blocks.
Sha256::DigestBytes HashWithKernel(sha256_kernels::Kernel kernel, const Bytes& data,
                                   size_t chunk) {
  Bytes padded = data;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) {
    padded.push_back(0x00);
  }
  const uint64_t bit_len = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bit_len >> (8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes pending;
  size_t off = 0;
  while (off < padded.size()) {
    const size_t len = std::min(chunk, padded.size() - off);
    pending.insert(pending.end(), padded.begin() + off, padded.begin() + off + len);
    off += len;
    const size_t whole = pending.size() / 64;
    if (whole > 0) {
      kernel(state, pending.data(), whole);
      pending.erase(pending.begin(), pending.begin() + 64 * whole);
    }
  }
  EXPECT_TRUE(pending.empty());
  Sha256::DigestBytes out;
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

// Sha256's streaming path (active kernel, one-step padding) fed in `chunk`s.
Sha256::DigestBytes HashStreaming(const Bytes& data, size_t chunk) {
  Sha256 h;
  size_t off = 0;
  while (off < data.size()) {
    const size_t len = std::min(chunk, data.size() - off);
    h.Update(data.data() + off, len);
    off += len;
  }
  return h.Finalize();
}

// The scalar kernel runs on every host, so it is checked on every host.
TEST(Sha256Kernels, ScalarMatchesStreaming) {
  std::mt19937 rng(1);
  for (size_t len = 0; len <= 1100; ++len) {
    const Bytes data = RandomBytes(rng, len);
    const Sha256::DigestBytes expected = Sha256::Hash(data);
    for (size_t chunk : kChunkings) {
      ASSERT_EQ(HashWithKernel(sha256_kernels::Scalar, data, chunk), expected)
          << "length " << len << " chunk " << chunk;
      ASSERT_EQ(HashStreaming(data, chunk), expected) << "length " << len << " chunk " << chunk;
    }
  }
}

TEST(Sha256Kernels, ShaNiMatchesScalar) {
  const sha256_kernels::Kernel shani = sha256_kernels::ShaNi();
  if (shani == nullptr) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  EXPECT_STREQ(sha256_kernels::ActiveName(), "sha-ni");
  std::mt19937 rng(2);
  for (size_t len = 0; len <= 1100; ++len) {
    const Bytes data = RandomBytes(rng, len);
    for (size_t chunk : kChunkings) {
      ASSERT_EQ(HashWithKernel(shani, data, chunk),
                HashWithKernel(sha256_kernels::Scalar, data, chunk))
          << "length " << len << " chunk " << chunk;
    }
  }
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes data = ToBytes("Hi There");
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(HexEncode(mac.data(), mac.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  Bytes data = ToBytes("what do ya want for nothing?");
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(HexEncode(mac.data(), mac.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 0xaa x20 key, 0xdd x50 data.
TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(HexEncode(mac.data(), mac.size()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(Hmac, LongKeyIsHashed) {
  Bytes key(131, 0xaa);
  Bytes data = ToBytes("Test Using Larger Than Block-Size Key - Hash Key First");
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(HexEncode(mac.data(), mac.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// The cached key schedule gives the one-shot bytes for empty, short,
// block-sized and longer-than-a-block keys (the last are hashed first).
TEST(HmacKey, MacMatchesOneShot) {
  std::mt19937 rng(3);
  for (size_t key_len : {0u, 20u, 32u, 64u, 65u, 131u}) {
    const Bytes key = RandomBytes(rng, key_len);
    const HmacKey schedule(key);
    for (size_t len : {0u, 1u, 55u, 56u, 64u, 100u, 1000u}) {
      const Bytes data = RandomBytes(rng, len);
      EXPECT_EQ(schedule.Mac(data), HmacSha256(key, data))
          << "key length " << key_len << " data length " << len;
      // Mac() leaves the schedule as it was.
      EXPECT_EQ(schedule.Mac(data), HmacSha256(key, data));
    }
  }
}

TEST(Digest, OfAndHexRoundTrip) {
  Digest d = Digest::Of(ToBytes("abc"));
  EXPECT_EQ(d.ToHex(), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_FALSE(d.IsZero());
  EXPECT_TRUE(Digest().IsZero());
}

TEST(Digest, SerializeParse) {
  Digest d = Digest::Of(ToBytes("payload"));
  Writer w;
  d.Serialize(w);
  Reader r(w.Buffer());
  Digest parsed = Digest::Parse(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(d, parsed);
}

TEST(Digest, Ordering) {
  Digest a = Digest::Of(ToBytes("a"));
  Digest b = Digest::Of(ToBytes("b"));
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

TEST(Keychain, SignVerify) {
  Keychain keychain(7, 4);
  Bytes msg = ToBytes("message");
  Signature sig = keychain.Sign(2, msg);
  EXPECT_TRUE(keychain.Verify(2, msg, sig));
}

TEST(Keychain, VerifyRejectsWrongSigner) {
  Keychain keychain(7, 4);
  Bytes msg = ToBytes("message");
  Signature sig = keychain.Sign(2, msg);
  EXPECT_FALSE(keychain.Verify(1, msg, sig));
}

TEST(Keychain, VerifyRejectsWrongMessage) {
  Keychain keychain(7, 4);
  Signature sig = keychain.Sign(2, ToBytes("message"));
  EXPECT_FALSE(keychain.Verify(2, ToBytes("other"), sig));
}

TEST(Keychain, VerifyRejectsUnknownSigner) {
  Keychain keychain(7, 4);
  Signature sig = keychain.Sign(0, ToBytes("m"));
  EXPECT_FALSE(keychain.Verify(99, ToBytes("m"), sig));
}

TEST(Keychain, DeterministicAcrossInstances) {
  Keychain a(42, 4);
  Keychain b(42, 4);
  Bytes msg = ToBytes("x");
  EXPECT_EQ(a.Sign(3, msg), b.Sign(3, msg));
}

TEST(Keychain, DifferentSeedsDiffer) {
  Keychain a(1, 4);
  Keychain b(2, 4);
  Bytes msg = ToBytes("x");
  EXPECT_FALSE(a.Sign(0, msg) == b.Sign(0, msg));
}

// Signatures are HMAC-SHA256 under Sha256("clandag-key" || seed || id),
// byte-identical to computing that one-shot on every call.
TEST(Keychain, SignaturesMatchOneShotHmac) {
  Keychain keychain(7, 4);
  std::mt19937 rng(4);
  for (NodeId id = 0; id < 4; ++id) {
    Writer w;
    w.Str("clandag-key");
    w.U64(7);
    w.U32(id);
    const Sha256::DigestBytes derived = Sha256::Hash(w.Buffer());
    const Bytes key(derived.begin(), derived.end());
    for (size_t len : {0u, 32u, 100u, 1000u}) {
      const Bytes msg = RandomBytes(rng, len);
      EXPECT_EQ(keychain.Sign(id, msg).mac, Digest(HmacSha256(key, msg)))
          << "signer " << id << " length " << len;
    }
  }
  // Pinned values, so the key derivation cannot drift with the MAC.
  EXPECT_EQ(keychain.Sign(0, ToBytes("keychain golden")).mac.ToHex(),
            "27bda05043bf75da11ae72c6da736dd7266f9739debd9755b599aa3829975d9d");
  EXPECT_EQ(keychain.Sign(3, ToBytes("keychain golden")).mac.ToHex(),
            "57fef2d4e5481f5b6ad0c1f536a4a59b5e0c99cff1979c779282fba3f18165ae");
}

TEST(SignerBitmap, SetTestCount) {
  SignerBitmap bm(10);
  EXPECT_EQ(bm.Count(), 0u);
  bm.Set(0);
  bm.Set(9);
  bm.Set(9);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(9));
  EXPECT_FALSE(bm.Test(5));
  EXPECT_FALSE(bm.Test(100));
  EXPECT_EQ(bm.Count(), 2u);
  EXPECT_EQ(bm.Ids(), (std::vector<NodeId>{0, 9}));
}

TEST(SignerBitmap, SerializeParse) {
  SignerBitmap bm(13);
  bm.Set(3);
  bm.Set(12);
  Writer w;
  bm.Serialize(w);
  Reader r(w.Buffer());
  SignerBitmap parsed = SignerBitmap::Parse(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(bm, parsed);
}

TEST(SignerBitmap, ParseRejectsWrongLength) {
  Writer w;
  w.U32(100);        // Claims 100 parties.
  w.Blob(Bytes{1});  // But only 1 byte of bits.
  Reader r(w.Buffer());
  SignerBitmap parsed = SignerBitmap::Parse(r);
  EXPECT_EQ(parsed.num_parties(), 0u);
}

class MultiSigTest : public ::testing::Test {
 protected:
  MultiSigTest() : keychain_(11, 7), msg_(ToBytes("agree on this")) {}

  MultiSig Build(const std::vector<NodeId>& signers) {
    SignerBitmap bm(7);
    std::vector<Signature> parts;
    for (NodeId id : signers) {
      bm.Set(id);
    }
    for (NodeId id : bm.Ids()) {
      parts.push_back(keychain_.Sign(id, msg_));
    }
    return MultiSig::Aggregate(bm, parts);
  }

  Keychain keychain_;
  Bytes msg_;
};

TEST_F(MultiSigTest, AggregateVerifies) {
  MultiSig sig = Build({0, 2, 4, 6});
  EXPECT_EQ(sig.Count(), 4u);
  EXPECT_TRUE(sig.Verify(keychain_, msg_));
}

TEST_F(MultiSigTest, VerifyRejectsWrongMessage) {
  MultiSig sig = Build({0, 2, 4});
  EXPECT_FALSE(sig.Verify(keychain_, ToBytes("tampered")));
}

TEST_F(MultiSigTest, VerifyRejectsClaimedNonSigner) {
  // Aggregate with a wrong third part while claiming signers {0,1,2}.
  SignerBitmap claimed(7);
  claimed.Set(0);
  claimed.Set(1);
  claimed.Set(2);
  std::vector<Signature> parts = {keychain_.Sign(0, msg_), keychain_.Sign(1, msg_),
                                  keychain_.Sign(5, msg_)};
  MultiSig sig = MultiSig::Aggregate(claimed, parts);
  EXPECT_FALSE(sig.Verify(keychain_, msg_));
}

TEST_F(MultiSigTest, SerializeParseRoundTrip) {
  MultiSig sig = Build({1, 3, 5});
  Writer w;
  sig.Serialize(w);
  Reader r(w.Buffer());
  MultiSig parsed = MultiSig::Parse(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(parsed.Count(), 3u);
  EXPECT_TRUE(parsed.Verify(keychain_, msg_));
}

TEST_F(MultiSigTest, WireSizeIsCompact) {
  // O(kappa + n): one 32-byte aggregate plus a bit-vector.
  MultiSig sig = Build({0, 1, 2, 3, 4, 5, 6});
  EXPECT_EQ(sig.ByteSize(), Digest::kSize + 4 + 1);
}

TEST_F(MultiSigTest, EmptyAggregateVerifiesVacuously) {
  MultiSig sig = Build({});
  EXPECT_EQ(sig.Count(), 0u);
  EXPECT_TRUE(sig.Verify(keychain_, msg_));  // Zero signers, zero aggregate.
}

}  // namespace
}  // namespace clandag
